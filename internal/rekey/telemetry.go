package rekey

import "antireplay/internal/telemetry"

var (
	_ telemetry.Collector = Stats{}
	_ telemetry.Collector = (*Orchestrator)(nil)
)

// CollectTelemetry emits the rekey lifecycle phase counts: how many
// rollovers each phase of the make-before-break has completed or lost.
func (s Stats) CollectTelemetry(emit telemetry.Emit) {
	emit("soft_triggers_total", telemetry.KindCounter, float64(s.SoftTriggers))
	emit("rollovers_total", telemetry.KindCounter, float64(s.Rollovers))
	emit("exchange_failures_total", telemetry.KindCounter, float64(s.ExchangeFailures))
	emit("abandoned_total", telemetry.KindCounter, float64(s.Abandoned))
	emit("retired_total", telemetry.KindCounter, float64(s.Retired))
}

// CollectTelemetry emits a live snapshot of the orchestrator's counters.
func (o *Orchestrator) CollectTelemetry(emit telemetry.Emit) {
	o.Stats().CollectTelemetry(emit)
}
