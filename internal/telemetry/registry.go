package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Registry is a list of (prefix, Collector) pairs rendered in the
// Prometheus text exposition format (version 0.0.4). There is one
// registration style, and it is pull: every layer that has numbers — the
// gateway, the journal, the saver pool, the cluster, the wire links, the
// sim loop — already counts into fields of its own, so the registry calls
// back at scrape time and the hot paths carry no instrument of this
// package. A binary with counters of its own keeps them (a
// stats.ShardedCounter is one padded atomic add) and emits them from a
// CollectorFunc.
//
// RegisterCollector panics on a malformed prefix or a nil collector —
// prefixes are compile-time constants, so a bad one is a programmer error
// caught by the first test that touches the package. What a collector
// emits is validated by Lint, not per scrape. Scrapes and registrations
// may race freely.
type Registry struct {
	mu      sync.Mutex
	sources []source
}

type source struct {
	prefix string
	c      Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCollector registers a collector under a name prefix: every
// sample it emits at scrape time appears as <prefix>_<name>. Two collectors
// may feed one family (same full name, different labels).
func (r *Registry) RegisterCollector(prefix string, c Collector) {
	if err := checkName(prefix); err != nil {
		panic(fmt.Sprintf("telemetry: collector prefix %q: %v", prefix, err))
	}
	if c == nil {
		panic("telemetry: nil collector")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, source{prefix: prefix, c: c})
}

// collect runs every registered collector, handing emit each sample under
// its full name. Called with r.mu NOT held (collectors may take other
// locks).
func (r *Registry) collect(emit Emit) {
	r.mu.Lock()
	srcs := append([]source(nil), r.sources...)
	r.mu.Unlock()
	for _, src := range srcs {
		prefix := src.prefix + "_"
		src.c.CollectTelemetry(func(name string, kind Kind, value float64, labels ...Label) {
			emit(prefix+name, kind, value, labels...)
		})
	}
}

// family is one metric name's samples gathered during a scrape. Its kind
// is the first sample's; Lint reports a later one that disagrees.
type family struct {
	kind    Kind
	samples []string // rendered "<labels> <value>" tails, in emission order
}

// WritePrometheus runs every collector and renders the families in
// lexicographic order, samples in emission order, for deterministic
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := make(map[string]*family)
	r.collect(func(name string, kind Kind, value float64, labels ...Label) {
		f := fams[name]
		if f == nil {
			f = &family{kind: kind}
			fams[name] = f
		}
		f.samples = append(f.samples, renderLabels(labels)+" "+formatValue(value))
	})
	for _, name := range sortedKeys(fams) {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, smp := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s\n", name, smp); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- promlint-style validation ----

var (
	nameRe  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	labelRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// reservedSuffixes are the series suffixes of a Prometheus histogram or
// summary; a family name ending in one collides with theirs.
var reservedSuffixes = []string{"_bucket", "_sum", "_count"}

func checkName(name string) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("name must match %s", nameRe)
	}
	for _, suf := range reservedSuffixes {
		if strings.HasSuffix(name, suf) {
			return fmt.Errorf("name must not end in reserved suffix %q", suf)
		}
	}
	return nil
}

// lintFamily checks a family's name shape and kind/suffix agreement.
func lintFamily(name string, kind Kind) error {
	if err := checkName(name); err != nil {
		return err
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter name must end in _total")
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("gauge name must not end in _total")
		}
	default:
		return fmt.Errorf("unknown kind %d", kind)
	}
	return nil
}

// lintLabels checks one sample's label hygiene.
func lintLabels(labels []Label) error {
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !labelRe.MatchString(l.Key) {
			return fmt.Errorf("label key %q must match %s", l.Key, labelRe)
		}
		if l.Key == "le" {
			return fmt.Errorf("label key \"le\" is reserved for histogram buckets")
		}
		if seen[l.Key] {
			return fmt.Errorf("duplicate label key %q", l.Key)
		}
		seen[l.Key] = true
	}
	return nil
}

// Lint validates one live sample of every collector against the
// promlint-style rules: name shape, counter _total suffix, no _total on
// gauges, reserved suffixes and label keys, one kind per family (however
// many collectors feed it) and no series emitted twice. It returns one
// error per violation; an instrumented stack with a clean Lint is safe to
// scrape.
func (r *Registry) Lint() []error {
	var errs []error
	kinds := make(map[string]Kind)
	seen := make(map[string]bool)
	r.collect(func(name string, kind Kind, _ float64, labels ...Label) {
		if first, ok := kinds[name]; !ok {
			kinds[name] = kind
			if err := lintFamily(name, kind); err != nil {
				errs = append(errs, fmt.Errorf("%s: %v", name, err))
			}
		} else if first != kind {
			errs = append(errs, fmt.Errorf("%s: kind %v conflicts with existing %v", name, kind, first))
		}
		if err := lintLabels(labels); err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", name, err))
		}
		series := name + renderLabels(labels)
		if seen[series] {
			errs = append(errs, fmt.Errorf("%s: duplicate series", series))
		}
		seen[series] = true
	})
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}
