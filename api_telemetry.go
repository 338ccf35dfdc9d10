package antireplay

import (
	"antireplay/internal/telemetry"
)

// Telemetry types a Gateway's, Standby's or Lanes' read-side methods name
// (CollectTelemetry, TelemetrySAs), re-exported from the implementation.
// The registry, HTTP server and event ring that consume them are wiring a
// binary owns (see cmd/resetsim), not library surface.
type (
	// MetricKind distinguishes counter and gauge families.
	MetricKind = telemetry.Kind
	// MetricLabel is one name/value label pair on a metric series.
	MetricLabel = telemetry.Label
	// MetricsEmit receives one sample from a CollectTelemetry method: a
	// layer that owns counters emits a snapshot of them at scrape time,
	// leaving its hot paths untouched.
	MetricsEmit = telemetry.Emit
	// SAIntrospection is one SA's snapshot entry (Gateway.TelemetrySAs):
	// sequence edge, durable horizon, window occupancy, and datapath
	// tallies.
	SAIntrospection = telemetry.SAInfo
)

// Metric kinds.
const (
	MetricCounter = telemetry.KindCounter
	MetricGauge   = telemetry.KindGauge
)
