// Package telemetry is the observability substrate for the whole stack: a
// metrics registry that samples the layers' own counters at scrape time, a
// bounded lock-free lifecycle event journal, and an HTTP introspection
// server exposing Prometheus text exposition, health, per-SA state, the
// event ring, and pprof.
//
// The package sits below every other layer: it imports only the standard
// library, so any package that owns a counter can depend on it without a
// cycle. There is one way in: a layer implements Collector (or wraps a
// function in CollectorFunc) and emits a snapshot of the fields it already
// keeps. That costs nothing between scrapes, which is what keeps the
// instrumented seal/open/save paths at 0 allocs/op under the CI zero-alloc
// gate — there is no instrument of this package on any of them.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a metric family for the exposition format.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "untyped"
	}
}

// Label is one metric dimension, rendered as key="value".
type Label struct {
	Key, Value string
}

// Emit receives one sample from a Collector. The name is the metric name
// relative to the collector's registration prefix (joined with "_").
type Emit func(name string, kind Kind, value float64, labels ...Label)

// Collector is the one snapshot interface every layer's ad-hoc stats
// struct converges on: instead of each subsystem inventing another
// exported struct of uint64 fields readable only from test code, it
// implements CollectTelemetry and registers under a prefix. The registry
// samples collectors at scrape time only, so implementations may take
// locks or walk populations without touching any hot path.
type Collector interface {
	CollectTelemetry(emit Emit)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(emit Emit)

// CollectTelemetry calls f.
func (f CollectorFunc) CollectTelemetry(emit Emit) { f(emit) }

// renderLabels renders a label set as {k="v",...} with Prometheus escaping
// (backslash, quote, newline). An empty set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// exposition output.
func sortedKeys[V any](m map[string]*V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatValue renders a sample value: integers without a fraction,
// everything else in Go's shortest-roundtrip form.
func formatValue(v float64) string {
	if v >= 0 && v < (1<<63) && v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%g", v)
}
