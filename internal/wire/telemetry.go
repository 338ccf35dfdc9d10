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
