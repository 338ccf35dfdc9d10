package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"antireplay/internal/core"
)

func col(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q (have %v)", tbl.ID, name, tbl.Columns)
	return -1
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Note: "n", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "two")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"=== x: T ===", "n", "a", "two"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "a,b\n1,two\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity should panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestTableCSVEscaping(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a"}}
	tbl.AddRow(`va"l,ue`)
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "a\n\"va\"\"l,ue\"\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestFlowCleanDelivery(t *testing.T) {
	f, err := NewFlow(DefaultFlowConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	f.AtSendCount(1000, f.StopTraffic)
	f.StartTraffic(time.Hour)
	f.Run(time.Second)
	if f.Sent() != 1000 {
		t.Fatalf("sent = %d, want 1000", f.Sent())
	}
	if got := f.Matrix.FreshDelivered(); got != 1000 {
		t.Errorf("delivered = %d, want 1000", got)
	}
	if got := f.Matrix.FreshDiscarded(); got != 0 {
		t.Errorf("fresh discarded = %d, want 0", got)
	}
}

func TestMatrix(t *testing.T) {
	var m Matrix
	m.add(true, delivered)
	m.add(true, delivered)
	m.add(true, discarded)
	m.add(false, discarded)
	m.add(false, delivered)
	m.add(false, unobserved)
	if got := m.FreshDelivered(); got != 2 {
		t.Errorf("FreshDelivered = %d, want 2", got)
	}
	if got := m.FreshDiscarded(); got != 1 {
		t.Errorf("FreshDiscarded = %d, want 1", got)
	}
	want := "fresh{delivered:2 discarded:1 unobserved:0} replay{accepted:1 discarded:1 unobserved:1}"
	if got := m.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestFlowDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := DefaultFlowConfig(42)
		cfg.Link.LossProb = 0.1
		cfg.Link.ReorderProb = 0.2
		cfg.Link.ReorderDelay = 40 * time.Microsecond
		f, err := NewFlow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.AtSendCount(2000, f.StopTraffic)
		f.Engine.At(2*time.Millisecond, f.Receiver.Reset)
		f.Engine.At(3*time.Millisecond, f.Receiver.Wake)
		f.StartTraffic(time.Hour)
		f.Run(time.Second)
		return f.Matrix.FreshDelivered(), f.Matrix.FreshDiscarded()
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Errorf("non-deterministic flow: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
}

func TestFig1Bounds(t *testing.T) {
	tbl, err := Fig1SenderReset(DefaultFig1Config())
	if err != nil {
		t.Fatal(err)
	}
	okCol := col(t, tbl, "ok")
	lostCol := col(t, tbl, "lost")
	boundCol := col(t, tbl, "bound_2K")
	states := map[string]bool{}
	for _, row := range tbl.Rows {
		if row[okCol] != "true" {
			t.Errorf("fig1 row violates bound: %v", row)
		}
		if mustUint(t, row[lostCol]) > mustUint(t, row[boundCol]) {
			t.Errorf("fig1 lost > bound: %v", row)
		}
		states[row[col(t, tbl, "save")]] = true
	}
	// The sweep must cover both branches of the Figure 1 analysis.
	if !states["in-flight"] || !states["committed"] {
		t.Errorf("fig1 sweep covered states %v, want both in-flight and committed", states)
	}
}

func TestFig2Bounds(t *testing.T) {
	tbl, err := Fig2ReceiverReset(DefaultFig2Config())
	if err != nil {
		t.Fatal(err)
	}
	accCol := col(t, tbl, "dup_delivered")
	sacCol := col(t, tbl, "sacrificed")
	boundCol := col(t, tbl, "bound_2K")
	repCol := col(t, tbl, "replayed")
	for _, row := range tbl.Rows {
		if got := mustUint(t, row[accCol]); got != 0 {
			t.Errorf("SAFETY: fig2 delivered %s duplicates: %v", row[accCol], row)
		}
		if mustUint(t, row[sacCol]) > mustUint(t, row[boundCol]) {
			t.Errorf("fig2 sacrificed > bound: %v", row)
		}
		if mustUint(t, row[repCol]) == 0 {
			t.Errorf("fig2 row replayed nothing — the adversary did not run: %v", row)
		}
	}
}

func TestUnboundedShape(t *testing.T) {
	cfg := DefaultUnboundedConfig()
	cfg.Traffic = []uint64{300, 600, 1200}
	tbl, err := UnboundedBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	protoCol := col(t, tbl, "protocol")
	xCol := col(t, tbl, "x_msgs")
	raCol := col(t, tbl, "replays_delivered_again")
	fdCol := col(t, tbl, "fresh_discarded_after_sender_reset")
	for _, row := range tbl.Rows {
		x := mustUint(t, row[xCol])
		ra := mustUint(t, row[raCol])
		fd := mustUint(t, row[fdCol])
		switch row[protoCol] {
		case "baseline":
			// Damage grows with x: at least half of the replays land, and
			// the sender-reset discard count is within a factor of x.
			if ra < x/2 {
				t.Errorf("baseline x=%d accepted only %d replays", x, ra)
			}
			if fd < x/2 {
				t.Errorf("baseline x=%d discarded only %d fresh", x, fd)
			}
		case "resilient":
			if ra != 0 {
				t.Errorf("SAFETY: resilient accepted %d replays at x=%d", ra, x)
			}
			if fd > 2*25 {
				t.Errorf("resilient fresh discards %d > 2K at x=%d", fd, x)
			}
		default:
			t.Errorf("unknown protocol %q", row[protoCol])
		}
	}
	if !strings.Contains(tbl.Note, "slope") {
		t.Errorf("note lacks slope fits: %s", tbl.Note)
	}
}

func TestSizingTable(t *testing.T) {
	tbl, err := SaveIntervalSizing()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(sizingInputs) {
		t.Fatalf("rows = %d, want %d (paper + stated inputs)", len(tbl.Rows), len(sizingInputs))
	}
	if got := tbl.Rows[0]; got[0] != "paper-pentium3-disk" || got[1] != "100.00" || got[2] != "4.00" || got[3] != "25" {
		t.Errorf("paper row = %v, want 100us save, 4us send, K = 25", got)
	}
	for i, in := range sizingInputs {
		if got, want := mustUint(t, tbl.Rows[i][col(t, tbl, "K")]), core.SizeK(in.save, in.send); got != want || got < 1 {
			t.Errorf("%s: K = %d, want ceil(%v / %v) = %d", in.medium, got, in.save, in.send, want)
		}
	}
}

func TestSizingKRule(t *testing.T) {
	tests := []struct {
		save, send time.Duration
		want       uint64
	}{
		{100 * time.Microsecond, 4 * time.Microsecond, 25},
		{100 * time.Microsecond, 3 * time.Microsecond, 34},
		{time.Microsecond, time.Millisecond, 1},
		{0, time.Microsecond, 1},
		{time.Microsecond, 0, 1},
	}
	for _, tt := range tests {
		if got := core.SizeK(tt.save, tt.send); got != tt.want {
			t.Errorf("SizeK(%v, %v) = %d, want %d", tt.save, tt.send, got, tt.want)
		}
	}
}

func TestConvergenceSenderTight(t *testing.T) {
	tbl, err := ConvergenceSender(DefaultConvergenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[col(t, tbl, "ok")] != "true" {
			t.Errorf("convsender row not ok: %v", row)
		}
		if row[col(t, tbl, "tight")] != "true" {
			t.Errorf("convsender worst case not tight (lost != 2K): %v", row)
		}
	}
}

func TestConvergenceReceiverBounds(t *testing.T) {
	tbl, err := ConvergenceReceiver(DefaultConvergenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[col(t, tbl, "ok")] != "true" {
			t.Errorf("convreceiver row not ok: %v", row)
		}
		if mustUint(t, row[col(t, tbl, "dup_delivered")]) != 0 {
			t.Errorf("SAFETY: convreceiver delivered duplicates: %v", row)
		}
		if row[col(t, tbl, "tight")] != "true" {
			t.Errorf("convreceiver worst case not tight (sacrificed != 2K): %v", row)
		}
	}
}

func TestRecoveryCostShape(t *testing.T) {
	cfg := RecoveryConfig{SACounts: []int{1, 4, 16}, Seed: 1}
	tbl, err := RecoveryCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		n := uint64(cfg.SACounts[i])
		for _, c := range []struct {
			name string
			want uint64
		}{
			{"ike_msgs", 4 * n}, {"ike_modexps", 4 * n},
			{"sf_msgs", 0}, {"sf_fetches", n}, {"sf_saves", n}, {"sf_fsyncs", n},
		} {
			if got := mustUint(t, row[col(t, tbl, c.name)]); got != c.want {
				t.Errorf("n=%d: %s = %d, want %d", n, c.name, got, c.want)
			}
		}
	}
}

func TestProlongedResetRegimes(t *testing.T) {
	tbl, err := ProlongedReset(DefaultProlongedConfig())
	if err != nil {
		t.Fatal(err)
	}
	stCol := col(t, tbl, "state_at_wake")
	revCol := col(t, tbl, "revived")
	repCol := col(t, tbl, "replayed_resync_delivered")
	ikeCol := col(t, tbl, "ike_required")
	var sawAlive, sawDead, sawExpired bool
	for _, row := range tbl.Rows {
		if row[repCol] != "false" {
			t.Errorf("SAFETY: replayed announcement delivered: %v", row)
		}
		switch row[stCol] {
		case "alive", "probing":
			sawAlive = true
			if row[revCol] != "true" {
				t.Errorf("short outage should revive: %v", row)
			}
		case "dead":
			sawDead = true
			if row[revCol] != "true" || row[ikeCol] != "false" {
				t.Errorf("wake within hold should revive without IKE: %v", row)
			}
		case "expired":
			sawExpired = true
			if row[revCol] != "false" || row[ikeCol] != "true" {
				t.Errorf("wake after expiry should require IKE: %v", row)
			}
		}
	}
	if !sawAlive || !sawDead || !sawExpired {
		t.Errorf("sweep missed a regime: alive=%v dead=%v expired=%v", sawAlive, sawDead, sawExpired)
	}
}

func TestDoubleResetAblation(t *testing.T) {
	tbl, err := DoubleReset(DefaultDoubleResetConfig())
	if err != nil {
		t.Fatal(err)
	}
	variant := col(t, tbl, "variant")
	side := col(t, tbl, "side")
	safe := col(t, tbl, "safe")
	for _, row := range tbl.Rows {
		switch row[variant] {
		case "paper":
			if row[safe] != "true" {
				t.Errorf("SAFETY: paper variant unsafe: %v", row)
			}
		case "ablation":
			if row[safe] != "false" {
				t.Errorf("ablation (%s) unexpectedly safe — the experiment "+
					"no longer demonstrates why the post-wake SAVE matters: %v", row[side], row)
			}
		}
	}
}

func TestLeapAblationCliff(t *testing.T) {
	tbl, err := LeapAblation(DefaultLeapConfig())
	if err != nil {
		t.Fatal(err)
	}
	lambdaCol := col(t, tbl, "lambda")
	safeCol := col(t, tbl, "safe")
	raCol := col(t, tbl, "receiver_dup_deliveries")
	for _, row := range tbl.Rows {
		lambda, err := strconv.ParseFloat(row[lambdaCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		if lambda >= 2 {
			if row[safeCol] != "true" {
				t.Errorf("lambda=%v should be safe: %v", lambda, row)
			}
			if mustUint(t, row[raCol]) != 0 {
				t.Errorf("SAFETY: lambda=%v accepted replays: %v", lambda, row)
			}
		} else {
			if row[safeCol] != "false" {
				t.Errorf("lambda=%v should be unsafe in the worst case: %v", lambda, row)
			}
		}
	}
}

func TestDeliveryConditions(t *testing.T) {
	cfg := DefaultDeliveryConfig()
	cfg.Messages = 3000
	tbl, err := Delivery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nameCol := col(t, tbl, "link")
	dupCol := col(t, tbl, "dupes_delivered")
	wdCol := col(t, tbl, "window_discards")
	for _, row := range tbl.Rows {
		if got := mustUint(t, row[dupCol]); got != 0 {
			t.Errorf("DISCRIMINATION: %s delivered %d duplicates", row[nameCol], got)
		}
		wd := mustUint(t, row[wdCol])
		switch row[nameCol] {
		case "clean", "loss-5%", "dup-5%", "reorder<w":
			if wd != 0 {
				t.Errorf("w-DELIVERY: %s discarded %d in-window messages", row[nameCol], wd)
			}
		case "reorder>w":
			if wd == 0 {
				t.Errorf("reorder>w should show window discards (got 0)")
			}
		}
	}
}

func TestLossJumpHorizonCliff(t *testing.T) {
	tbl, err := LossJumpHorizon(DefaultHorizonConfig())
	if err != nil {
		t.Fatal(err)
	}
	jumpCol := col(t, tbl, "jump")
	varCol := col(t, tbl, "variant")
	dupCol := col(t, tbl, "dup_delivery")
	safeCol := col(t, tbl, "safe")
	leap := 2 * DefaultHorizonConfig().K
	for _, row := range tbl.Rows {
		jump := mustUint(t, row[jumpCol])
		switch row[varCol] {
		case "paper":
			if jump > leap && row[dupCol] != "true" {
				t.Errorf("paper variant at jump %d should exhibit the duplicate (gap pin): %v", jump, row)
			}
			if jump < leap && row[dupCol] != "false" {
				t.Errorf("paper variant at jump %d should be safe: %v", jump, row)
			}
		case "strict":
			if row[dupCol] != "false" {
				t.Errorf("SAFETY: strict variant duplicated at jump %d: %v", jump, row)
			}
			if row[safeCol] != "true" {
				t.Errorf("strict variant not safe+live at jump %d: %v", jump, row)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "unbounded", "sizing", "convsender",
		"convreceiver", "recovery", "prolonged", "doublereset", "leap",
		"delivery", "horizon", "rekey", "failover", "scale", "campaigns",
		"diskfault"}
	rs := All()
	if len(rs) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(rs), len(want))
	}
	for i, id := range want {
		if rs[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, rs[i].ID, id)
		}
		if rs[i].Paper == "" {
			t.Errorf("registry %s has no paper reference", rs[i].ID)
		}
	}
	if _, ok := ByID("fig1"); !ok {
		t.Error("ByID(fig1) not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRegistryRunsFast executes every experiment in fast mode end to end
// and compares every rendered table but scale against
// testdata/tables_fast.golden, so a change that moves a byte of the paper's
// evidence fails here. scale reads the wall clock: it times a component, the
// one table that stays bench/'s to replace. Regenerate with: go test
// ./internal/experiments -run TestRegistryRunsFast -update
func TestRegistryRunsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow")
	}
	rendered := map[string]string{}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(true)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(tbl.Rows) == 0 {
				t.Error("empty table")
			}
			if tbl.ID != r.ID {
				t.Errorf("table ID %s, want %s", tbl.ID, r.ID)
			}
			rendered[r.ID] = tbl.String()
		})
	}
	var got strings.Builder
	for _, r := range All() {
		if r.ID == "scale" {
			continue
		}
		tbl, ok := rendered[r.ID]
		if !ok {
			t.Logf("no golden comparison: %s did not render (failed, or filtered out by -run)", r.ID)
			return
		}
		got.WriteString(tbl)
		got.WriteString("\n")
	}
	golden := filepath.Join("testdata", "tables_fast.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("tables differ from golden.\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
