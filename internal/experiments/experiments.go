// Package experiments regenerates every figure and table of the paper's
// analysis, plus extension experiments beyond the paper (the adversary,
// fault, failover and rekey evidence). The tables are evidence — bounds
// held, replays rejected — not timing: what a packet or a save costs is
// bench/'s to report, as medians with a spread. The one exception, scale,
// is a single-shot wall-clock table kept until bench/ has a scale workload.
//
// Each experiment is a function from a parameter struct to a *Table, and
// all randomness is seeded. Eleven tables reproduce bit-for-bit, ten on
// virtual time alone and campaigns because its crashes wait for the
// receiver's SAVEs to land: TestRegistryRunsFast holds them to
// testdata/tables_fast.golden. The rest (rekey, failover, diskfault,
// sizing, recovery, scale) race real goroutines or read the wall clock and
// vary run to run. The cmd/benchtables binary and the root bench_test.go
// both call these functions, and cmd/resetsim renders one scenario of the
// gateway-level ones (campaigns, diskfault, failover, rekey); each
// Table.Note records the expected shapes next to paper claims.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
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
	// Run executes the experiment with default parameters. fast selects a
	// cheaper parameterization where one exists (same shape, less work).
	Run func(fast bool) (*Table, error)
}

// All returns the experiment registry in presentation order.
func All() []Runner {
	return []Runner{
		{ID: "fig1", Paper: "Figure 1 (sender reset analysis)", Run: func(fast bool) (*Table, error) {
			cfg := DefaultFig1Config()
			return Fig1SenderReset(cfg)
		}},
		{ID: "fig2", Paper: "Figure 2 (receiver reset analysis)", Run: func(fast bool) (*Table, error) {
			cfg := DefaultFig2Config()
			return Fig2ReceiverReset(cfg)
		}},
		{ID: "unbounded", Paper: "§3 unbounded failures of the baseline", Run: func(fast bool) (*Table, error) {
			cfg := DefaultUnboundedConfig()
			if fast {
				cfg.Traffic = cfg.Traffic[:2]
			}
			return UnboundedBaseline(cfg)
		}},
		{ID: "sizing", Paper: "§4 SAVE-interval sizing example", Run: func(fast bool) (*Table, error) {
			cfg := DefaultSizingConfig()
			if fast {
				cfg.Samples = 32
			}
			return SaveIntervalSizing(cfg)
		}},
		{ID: "convsender", Paper: "§5 condition (i): sender convergence", Run: func(fast bool) (*Table, error) {
			return ConvergenceSender(DefaultConvergenceConfig())
		}},
		{ID: "convreceiver", Paper: "§5 condition (ii): receiver convergence", Run: func(fast bool) (*Table, error) {
			return ConvergenceReceiver(DefaultConvergenceConfig())
		}},
		{ID: "recovery", Paper: "§3 cost of SA re-establishment vs SAVE/FETCH", Run: func(fast bool) (*Table, error) {
			cfg := DefaultRecoveryConfig()
			if fast {
				cfg.FastDH = true
				cfg.SACounts = []int{1, 4, 16}
			}
			return RecoveryCost(cfg)
		}},
		{ID: "prolonged", Paper: "§6 prolonged resets with DPD", Run: func(fast bool) (*Table, error) {
			return ProlongedReset(DefaultProlongedConfig())
		}},
		{ID: "doublereset", Paper: "§4 second consideration: double reset", Run: func(fast bool) (*Table, error) {
			return DoubleReset(DefaultDoubleResetConfig())
		}},
		{ID: "leap", Paper: "leap-number ablation (why 2K)", Run: func(fast bool) (*Table, error) {
			return LeapAblation(DefaultLeapConfig())
		}},
		{ID: "delivery", Paper: "§2 w-Delivery and Discrimination", Run: func(fast bool) (*Table, error) {
			cfg := DefaultDeliveryConfig()
			if fast {
				cfg.Messages = 2000
			}
			return Delivery(cfg)
		}},
		{ID: "horizon", Paper: "analysis gap: loss jump + torn save (README.md)", Run: func(fast bool) (*Table, error) {
			return LossJumpHorizon(DefaultHorizonConfig())
		}},
		{ID: "rekey", Paper: "extension: IKE-driven rollover under resets (make-before-break)", Run: func(fast bool) (*Table, error) {
			cfg := DefaultRekeyConfig()
			if fast {
				cfg.FastDH = true
				cfg.Tunnels = 2
				cfg.LossProbs = []float64{0, 0.25}
			}
			return RekeyRollover(cfg)
		}},
		{ID: "failover", Paper: "extension: HA failover as the paper's reset (epoch-fenced takeover)", Run: func(fast bool) (*Table, error) {
			cfg := DefaultFailoverConfig()
			if fast {
				cfg.Tunnels = 2
				cfg.PacketsPerPhase = 80
				cfg.LossProbs = []float64{0, 0.25}
			}
			return Failover(cfg)
		}},
		{ID: "scale", Paper: "extension, single-shot: journal lanes at million-SA scale (64-way SAVE, concurrent recovery of packed cells, per-SA heap; the one-lane-vs-64 recovery gap closed by construction)", Run: func(fast bool) (*Table, error) {
			cfg := DefaultScaleConfig()
			if fast {
				cfg.Cells = 50_000
				cfg.SAs = 50_000
			}
			return Scale(cfg)
		}},
		{ID: "campaigns", Paper: "extension: stealth-DoS campaigns (bounded degradation, zero replay acceptance)", Run: func(fast bool) (*Table, error) {
			cfg := CampaignsConfig{Seed: 1}
			if fast {
				cfg.Packets = 240
			}
			return campaignTable("campaigns", cfg, "")
		}},
		{ID: "diskfault", Paper: "extension: storage fault domains (lane quarantine, bounded degradation, standby lane repair)", Run: func(fast bool) (*Table, error) {
			cfg := CampaignsConfig{Seed: 1}
			if fast {
				cfg.Packets, cfg.Lanes = 30, 16
			}
			return campaignTable("diskfault", cfg, "")
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
