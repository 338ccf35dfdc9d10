package main

import (
	"fmt"
	"sync"
	"time"

	"antireplay/internal/cluster"
	"antireplay/internal/ipsec"
	"antireplay/internal/stats"
	"antireplay/internal/telemetry"
	wirenet "antireplay/internal/wire"
)

// lagHealthyAge bounds how stale a lagging standby's last ack may be
// before /healthz degrades: lag with a fresh ack is a follower catching
// up; lag with an old ack is a dead one.
const lagHealthyAge = 5 * time.Second

// simTelemetry is the -metrics stack of the gateway modes: one registry,
// one lifecycle event ring, and one HTTP server, with the collector set
// tracking the cluster roles as failovers swap them. The role pointers
// are re-read under a mutex at every scrape, so the sim loop retargets
// them with one setter call after each takeover and the endpoints always
// describe the current primary. A nil *simTelemetry is inert: every
// method no-ops, so the sim code calls it unconditionally.
type simTelemetry struct {
	reg *telemetry.Registry
	ev  *telemetry.Events
	srv *telemetry.Server

	// Sim-loop counters, owned here and emitted under apn_sim at scrape
	// time (the hot loop pays one padded atomic add).
	delivered, sacrificed, lost, horizon, saveLag, failovers stats.ShardedCounter

	mu      sync.Mutex
	sender  *ipsec.Gateway
	primary *ipsec.Gateway
	standby *cluster.Standby
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
		emit("delivered_total", telemetry.KindCounter, float64(t.delivered.Value()))
		// Legitimate packets the receiver discarded: the post-wake sacrificed window.
		emit("false_rejects_total", telemetry.KindCounter, float64(t.sacrificed.Value()))
		emit("lost_total", telemetry.KindCounter, float64(t.lost.Value()))
		// Retries at the receiver's (VerdictHorizon) and the sender's
		// (ErrSaveLag) durable horizon.
		emit("horizon_stalls_total", telemetry.KindCounter, float64(t.horizon.Value()))
		emit("save_lag_retries_total", telemetry.KindCounter, float64(t.saveLag.Value()))
		emit("failovers_total", telemetry.KindCounter, float64(t.failovers.Value()))
	}))

	// Role collectors resolve the current holder at scrape time.
	t.reg.RegisterCollector("apn_gateway", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if g := t.getPrimary(); g != nil {
			g.CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_sender", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if g := t.getSender(); g != nil {
			g.CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_journal", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if g := t.getPrimary(); g != nil {
			g.Journal().CollectTelemetry(emit)
		}
	}))
	t.reg.RegisterCollector("apn_cluster", telemetry.CollectorFunc(func(emit telemetry.Emit) {
		if s := t.getStandby(); s != nil {
			s.CollectTelemetry(emit)
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

func (t *simTelemetry) getSender() *ipsec.Gateway {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sender
}

func (t *simTelemetry) getPrimary() *ipsec.Gateway {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.primary
}

func (t *simTelemetry) getStandby() *cluster.Standby {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.standby
}

// setRoles retargets the scrape at the current role holders; any nil
// argument leaves that role unchanged.
func (t *simTelemetry) setRoles(sender, primary *ipsec.Gateway, standby *cluster.Standby) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sender != nil {
		t.sender = sender
	}
	if primary != nil {
		t.primary = primary
	}
	if standby != nil {
		t.standby = standby
	}
}

// registerLink adds the wire link's counters under apn_link and its
// endpoint's under apn_endpoint (UDP mode).
func (t *simTelemetry) registerLink(l *wirenet.UDPLink) {
	if t == nil || l == nil {
		return
	}
	t.reg.RegisterCollector("apn_link", wirenet.LinkCollector(l))
	t.reg.RegisterCollector("apn_endpoint", l.Endpoint())
}

// addr returns the server's bound address ("" on a nil stack).
func (t *simTelemetry) addr() string {
	if t == nil {
		return ""
	}
	return t.srv.Addr()
}

func (t *simTelemetry) close() {
	if t != nil {
		t.srv.Close() //nolint:errcheck // shutdown on exit
	}
}

// Hot-loop accounting; nil-safe.
func (t *simTelemetry) countDelivered() {
	if t != nil {
		t.delivered.Add(1)
	}
}

func (t *simTelemetry) countSacrificed() {
	if t != nil {
		t.sacrificed.Add(1)
	}
}

func (t *simTelemetry) countLost() {
	if t != nil {
		t.lost.Add(1)
	}
}

// countStall is the testbed's OnStall hook: one backoff pause at the
// sender's (sealing) or the receiver's durable horizon.
func (t *simTelemetry) countStall(sealing bool) {
	switch {
	case t == nil:
	case sealing:
		t.saveLag.Add(1)
	default:
		t.horizon.Add(1)
	}
}

func (t *simTelemetry) countFailover() {
	if t != nil {
		t.failovers.Add(1)
	}
}

// events returns the ring for direct Record calls (nil on a nil stack;
// the ring itself is nil-safe too).
func (t *simTelemetry) events() *telemetry.Events {
	if t == nil {
		return nil
	}
	return t.ev
}

// onLifecycle is the ipsec.GatewayConfig.OnLifecycle /
// cluster.Config.OnLifecycle hook; nil when the stack is off so the
// gateways skip the callback entirely.
func (t *simTelemetry) onLifecycle() func(kind string, sas int) {
	if t == nil {
		return nil
	}
	return ipsec.LifecycleRecorder(t.ev)
}

// onPromote is the cluster.Config.OnPromote hook: the epoch-fenced
// takeover instant lands in the event ring.
func (t *simTelemetry) onPromote() func(epoch uint64) {
	if t == nil {
		return nil
	}
	return func(epoch uint64) { t.ev.Record("cluster", "promote", 0, epoch) }
}

// health builds the /healthz report from the current role holders.
func (t *simTelemetry) health() telemetry.Health {
	h := telemetry.Health{OK: true}
	if g := t.getPrimary(); g != nil {
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
	if s := t.getStandby(); s != nil {
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
	if g := t.getPrimary(); g != nil {
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
