package main

import (
	"fmt"
	"sync"
	"time"

	"antireplay/internal/cluster"
	"antireplay/internal/ipsec"
	"antireplay/internal/stats"
	"antireplay/internal/telemetry"
	"antireplay/internal/testbed"
	wirenet "antireplay/internal/wire"
)

// lagHealthyAge bounds how stale a lagging standby's last ack may be
// before /healthz degrades: lag with a fresh ack is a follower catching
// up; lag with an old ack is a dead one.
const lagHealthyAge = 5 * time.Second

// simTelemetry is the -metrics stack of the gateway modes: one registry,
// one lifecycle event ring, and one HTTP server, with the collector set
// tracking the testbed's roles as takeovers swap them. The roles are
// re-read under a mutex at every scrape and retargeted by the testbed's
// OnRoles hook, so the endpoints always describe the current primary. A nil
// *simTelemetry is inert: every method called on it no-ops.
type simTelemetry struct {
	reg *telemetry.Registry
	ev  *telemetry.Events
	srv *telemetry.Server

	// Backoff pauses, owned here and emitted under apn_sim at scrape time.
	horizon, saveLag stats.ShardedCounter

	mu  sync.Mutex
	cur roles
}

// roles are the pair's current role holders: the sender gateway, the
// serving primary, its standby (nil before the first) and, on a UDP pair,
// the sender's socket link.
type roles struct {
	sender, primary *ipsec.Gateway
	standby         *cluster.Standby
	link            *wirenet.UDPLink
}

// newSimTelemetry builds the stack and binds the server to addr (":0"
// picks a free port; the bound address is in srv.Addr()).
func newSimTelemetry(addr string) (*simTelemetry, error) {
	t := &simTelemetry{
		reg: telemetry.NewRegistry(),
		ev:  telemetry.NewEvents(256),
	}
	t.reg.RegisterCollector("apn_process", telemetry.Process)
	t.reg.RegisterCollector("apn_sim", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		// Retries at the receiver's (VerdictHorizon) and the sender's
		// (ErrSaveLag) durable horizon.
		emit("horizon_stalls_total", telemetry.KindCounter, float64(t.horizon.Value()))
		emit("save_lag_retries_total", telemetry.KindCounter, float64(t.saveLag.Value()))
	}))

	// Role collectors resolve the current holder at scrape time.
	t.reg.RegisterCollector("apn_gateway", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if g := t.roles().primary; g != nil {
			g.CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_sender", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if g := t.roles().sender; g != nil {
			g.CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_journal", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if g := t.roles().primary; g != nil {
			g.Journal().CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_cluster", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if s := t.roles().standby; s != nil {
			s.CollectTelemetry(emit)
		}
	}))
	// The wire link's counters and its endpoint's, on a UDP pair.
	t.reg.RegisterCollector("apn_link", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if l := t.roles().link; l != nil {
			wirenet.LinkCollector(l).CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_endpoint", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if l := t.roles().link; l != nil {
			l.Endpoint().CollectTelemetry(emit)
		}
	}))

	t.srv = telemetry.NewServer(telemetry.ServerConfig{
		Registry: t.reg,
		Events:   t.ev,
		Health:   t.health,
		SAs:      t.sas,
	})
	if err := t.srv.ListenAndServe(addr); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *simTelemetry) roles() roles {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// setRoles is the testbed's OnRoles hook: it retargets the scrape at the
// pair's current role holders.
func (t *simTelemetry) setRoles(p *testbed.Pair) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = roles{sender: p.A.GW, primary: p.B.GW, standby: p.Standby, link: p.Tx}
}

// instrument attaches the stack to a scenario's topology: resets, wakes,
// takeovers and lane quarantines land in the event ring, backoff pauses in
// the apn_sim counters, and role changes retarget the scrape.
func (t *simTelemetry) instrument(bed *testbed.Config) {
	bed.OnLifecycle = ipsec.LifecycleRecorder(t.ev)
	bed.OnPromote = func(epoch uint64) { t.ev.Record("cluster", "promote", 0, epoch) }
	bed.OnPoison = ipsec.LaneFaultRecorder(t.ev)
	bed.OnStall = t.countStall
	bed.OnRoles = t.setRoles
}

// addr returns the server's bound address.
func (t *simTelemetry) addr() string { return t.srv.Addr() }

func (t *simTelemetry) close() {
	t.srv.Close() //nolint:errcheck // shutdown on exit
}

// countStall is the testbed's OnStall hook: one backoff pause at the
// sender's (sealing) or the receiver's durable horizon.
func (t *simTelemetry) countStall(sealing bool) {
	if sealing {
		t.saveLag.Add(1)
	} else {
		t.horizon.Add(1)
	}
}

// health builds the /healthz report from the current role holders.
func (t *simTelemetry) health() telemetry.Health {
	h := telemetry.Health{OK: true}
	if g := t.roles().primary; g != nil {
		detail := ""
		fenced := g.Journal().Fenced()
		if fenced != nil {
			detail = fenced.Error() // deposed by a takeover
		}
		h.Check("journal_unfenced", fenced == nil, detail)
		if q := g.Degraded(); len(q) > 0 {
			// Quarantined lanes degrade (reduced capacity, still serving the
			// healthy lanes) rather than fail the process: pulling the whole
			// gateway for one lane would widen the blast radius on purpose.
			h.Degrade("storage_lanes", fmt.Sprintf("lanes %v quarantined by I/O faults", q))
		} else {
			h.Check("storage_lanes", true, "")
		}
	}
	if s := t.roles().standby; s != nil {
		st := s.Stats()
		errDetail := ""
		if st.Err != nil {
			errDetail = st.Err.Error()
		}
		h.Check("replication_stream", st.Err == nil, errDetail)
		h.Check("replication_lag", st.LagRecords == 0 || st.LastAckAge < lagHealthyAge,
			fmt.Sprintf("%d records behind, last ack %v ago", st.LagRecords, st.LastAckAge))
	}
	return h
}

// sas builds the /saz snapshot from the current primary.
func (t *simTelemetry) sas() []telemetry.SAInfo {
	if g := t.roles().primary; g != nil {
		return g.TelemetrySAs()
	}
	return nil
}

// dumpEvents prints the lifecycle event ring, oldest first — the
// post-run companion to the live /events endpoint.
func (t *simTelemetry) dumpEvents() {
	if t == nil {
		return
	}
	evs := t.ev.Snapshot()
	if len(evs) == 0 {
		return
	}
	fmt.Printf("\nlifecycle events (%d recorded, last %d retained):\n", t.ev.Total(), len(evs))
	for _, e := range evs {
		line := fmt.Sprintf("  #%-4d %s %s/%s", e.Seq, e.At.Format("15:04:05.000"), e.Layer, e.Kind)
		if e.SPI != 0 {
			line += fmt.Sprintf(" spi=%#x", e.SPI)
		}
		if e.Value != 0 {
			line += fmt.Sprintf(" value=%d", e.Value)
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		fmt.Println(line)
	}
}
