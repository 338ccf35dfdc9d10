package wire

import "antireplay/internal/telemetry"

// The wire layer's snapshot structs implement telemetry.Collector, so a
// link's numbers register under a prefix instead of being yet another
// struct readable only from test code. The snapshots are values — register
// a live link with a CollectorFunc that re-snapshots at scrape time:
//
//	reg.RegisterCollector("apn_wire", telemetry.CollectorFunc(
//		func(emit telemetry.Emit) { link.Stats().CollectTelemetry(emit) }))

var (
	_ telemetry.Collector = Stats{}
	_ telemetry.Collector = GateStats{}
	_ telemetry.Collector = (*UDPEndpoint)(nil)
)

// CollectTelemetry emits the link's transfer and drop counters.
func (s Stats) CollectTelemetry(emit telemetry.Emit) {
	emit("tx_packets_total", telemetry.KindCounter, float64(s.TxPackets))
	emit("tx_bytes_total", telemetry.KindCounter, float64(s.TxBytes))
	emit("rx_packets_total", telemetry.KindCounter, float64(s.RxPackets))
	emit("rx_bytes_total", telemetry.KindCounter, float64(s.RxBytes))
	emit("tx_drops_total", telemetry.KindCounter, float64(s.TxDrops))
	emit("rx_drops_total", telemetry.KindCounter, float64(s.RxDrops))
	emit("keepalives_total", telemetry.KindCounter, float64(s.Keepalives))
}

// CollectTelemetry emits the endpoint's demux misses, the syscalls its
// datapath has made and the transmit ring's depth. Datagrams per syscall —
// whether batching is happening — is the links' tx_packets_total over
// tx_syscalls_total.
func (e *UDPEndpoint) CollectTelemetry(emit telemetry.Emit) {
	emit("unrouted_total", telemetry.KindCounter, float64(e.unrouted.Load()))
	emit("tx_syscalls_total", telemetry.KindCounter, float64(e.txCalls.Load()))
	emit("rx_syscalls_total", telemetry.KindCounter, float64(e.rxCalls.Load()))
	emit("tx_queue_depth", telemetry.KindGauge, float64(e.tx.depth()))
}

// CollectTelemetry emits the replay-gate's admission counters.
func (s GateStats) CollectTelemetry(emit telemetry.Emit) {
	emit("passed_total", telemetry.KindCounter, float64(s.Passed))
	emit("dropped_total", telemetry.KindCounter, float64(s.Dropped))
	emit("held_total", telemetry.KindCounter, float64(s.Held))
	emit("released_total", telemetry.KindCounter, float64(s.Released))
	emit("held_dropped_total", telemetry.KindCounter, float64(s.HeldDropped))
	emit("injected_total", telemetry.KindCounter, float64(s.Injected))
}

// LinkCollector adapts a live Link: each scrape re-snapshots Stats, and
// when the link is a GateLink its gate stats ride along under the same
// prefix.
func LinkCollector(l Link) telemetry.Collector {
	return telemetry.CollectorFunc(func(emit telemetry.Emit) {
		l.Stats().CollectTelemetry(emit)
		if g, ok := l.(*GateLink); ok {
			g.GateStats().CollectTelemetry(emit)
		}
	})
}
