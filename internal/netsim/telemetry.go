package netsim

import "antireplay/internal/telemetry"

var _ telemetry.Collector = LinkStats{}

// CollectTelemetry emits the simulated link's delivery and impairment
// counters, so netsim-backed experiments scrape identically to the socket
// transports (wire.Stats implements the same interface).
func (s LinkStats) CollectTelemetry(emit telemetry.Emit) {
	emit("sent_total", telemetry.KindCounter, float64(s.Sent))
	emit("injected_total", telemetry.KindCounter, float64(s.Injected))
	emit("lost_total", telemetry.KindCounter, float64(s.Lost))
	emit("duplicated_total", telemetry.KindCounter, float64(s.Duplicated))
	emit("reordered_total", telemetry.KindCounter, float64(s.Reordered))
	emit("delivered_total", telemetry.KindCounter, float64(s.Delivered))
}
