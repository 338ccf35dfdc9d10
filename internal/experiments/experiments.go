// Package experiments regenerates every figure and table of the paper's
// analysis, plus extension experiments beyond the paper (the adversary,
// fault, failover and rekey evidence). The tables are evidence — bounds
// held, replays rejected — not timing: what a packet or a save costs is
// bench/'s to report, as medians with a spread. The one exception, scale,
// is a single-shot wall-clock table kept until bench/ has a scale workload.
//
// Each experiment is a registry entry with one parameterization, and all
// randomness is seeded. Every table but scale reproduces bit-for-bit and
// TestRegistryRunsFast holds it to testdata/tables.golden, exactly what
// cmd/benchtables prints: most run on virtual time alone; sizing and
// recovery report a formula and counted work; and campaigns, diskfault,
// failover and rekey script the race between a SAVE and the traffic or
// crash after it (testbed.Pair.Settle). The cmd/benchtables binary runs the
// registry, and cmd/resetsim renders one scenario of the gateway-level
// ones (campaigns, diskfault, failover, rekey) and drives a Flow of its
// own; each Table.Note records the expected shapes next to paper claims.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"antireplay/internal/testbed"
)

// Table is one experiment's rendered result.
type Table struct {
	// ID is the short experiment id (e.g. "fig1").
	ID string
	// Title is the human heading.
	Title string
	// Note records the paper reference and the expected shape.
	Note string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, formatted.
	Rows [][]string
}

// AddRow appends one formatted row. It panics if the cell count does not
// match the header (programmer error in an experiment).
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: table %s: row has %d cells, want %d", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title); err != nil {
		return fmt.Errorf("experiments: render: %w", err)
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return fmt.Errorf("experiments: render: %w", err)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.Columns, "\t")); err != nil {
		return fmt.Errorf("experiments: render: %w", err)
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return fmt.Errorf("experiments: render: %w", err)
		}
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("experiments: render: %w", err)
	}
	return nil
}

// RenderCSV writes the table as CSV (header then rows).
func (t *Table) RenderCSV(w io.Writer) error {
	write := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(t.Columns); err != nil {
		return fmt.Errorf("experiments: render csv: %w", err)
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return fmt.Errorf("experiments: render csv: %w", err)
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return fmt.Sprintf("table %s: %v", t.ID, err)
	}
	return sb.String()
}

// Runner is one experiment entry in the registry.
type Runner struct {
	// ID matches Table.ID.
	ID string
	// Paper names the paper artifact reproduced.
	Paper string
	// Run executes the experiment at its one parameterization.
	Run func() (*Table, error)
}

// All returns the experiment registry in presentation order.
func All() []Runner {
	return []Runner{
		{ID: "fig1", Paper: "Figure 1 (sender reset analysis)", Run: fig1SenderReset},
		{ID: "fig2", Paper: "Figure 2 (receiver reset analysis)", Run: fig2ReceiverReset},
		{ID: "unbounded", Paper: "§3 unbounded failures of the baseline", Run: func() (*Table, error) {
			return unboundedBaseline(500, 1000, 2000, 4000)
		}},
		{ID: "sizing", Paper: "§4 SAVE-interval sizing example", Run: saveIntervalSizing},
		{ID: "convsender", Paper: "§5 condition (i): sender convergence", Run: convergenceSender},
		{ID: "convreceiver", Paper: "§5 condition (ii): receiver convergence", Run: convergenceReceiver},
		{ID: "recovery", Paper: "§3 cost of SA re-establishment vs SAVE/FETCH", Run: func() (*Table, error) {
			return recoveryCost(1, 4, 16, 64)
		}},
		{ID: "prolonged", Paper: "§6 prolonged resets with DPD", Run: prolongedReset},
		{ID: "doublereset", Paper: "§4 second consideration: double reset", Run: doubleReset},
		{ID: "leap", Paper: "leap-number ablation (why 2K)", Run: leapAblation},
		{ID: "delivery", Paper: "§2 w-Delivery and Discrimination", Run: func() (*Table, error) {
			return delivery(10000)
		}},
		{ID: "horizon", Paper: "analysis gap: loss jump + torn save (README.md)", Run: lossJumpHorizon},
		{ID: "rekey", Paper: "extension: IKE-driven rollover under resets (make-before-break)", Run: func() (*Table, error) {
			return RekeyRollover(PairConfig{Seed: 1, LossProbs: []float64{0, 0.05, 0.25}, Tunnels: 4, PacketsPerPhase: 200,
				Bed: testbed.Config{K: 25, W: 64, Sync: true}})
		}},
		{ID: "failover", Paper: "extension: HA failover as the paper's reset (epoch-fenced takeover)", Run: func() (*Table, error) {
			return Failover(PairConfig{Seed: 1, LossProbs: []float64{0, 0.05, 0.25}, Tunnels: 4, PacketsPerPhase: 200,
				Bed: testbed.Config{K: 25, Lanes: 8}})
		}},
		{ID: "scale", Paper: "extension, single-shot: journal lanes at million-SA scale (64-way SAVE, concurrent recovery of packed cells, per-SA heap; the one-lane-vs-64 recovery gap closed by construction)", Run: func() (*Table, error) {
			return scale(1_000_000)
		}},
		{ID: "campaigns", Paper: "extension: stealth-DoS campaigns (bounded degradation, zero replay acceptance)", Run: func() (*Table, error) {
			return campaignTable("campaigns", CampaignsConfig{Seed: 1}, "")
		}},
		{ID: "diskfault", Paper: "extension: storage fault domains (lane quarantine, bounded degradation, standby lane repair)", Run: func() (*Table, error) {
			return campaignTable("diskfault", CampaignsConfig{Seed: 1}, "")
		}},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
