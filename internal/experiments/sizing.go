package experiments

import (
	"fmt"
	"time"

	"antireplay/internal/core"
)

// sizingInputs are the stated (T_save, T_send) pairs the §4 rule is applied
// to: the paper's worked example, an fsync'd journal commit against a
// 64-byte and a 1400-byte ESP seal, and a page-cache write against the
// 64-byte one.
var sizingInputs = []struct {
	medium     string
	save, send time.Duration
}{
	{"paper-pentium3-disk", 100 * time.Microsecond, 4 * time.Microsecond},
	{"fsync-64B", time.Millisecond, time.Microsecond},
	{"fsync-1400B", time.Millisecond, 8 * time.Microsecond},
	{"page-cache-64B", 5 * time.Microsecond, time.Microsecond},
}

// SaveIntervalSizing reproduces the paper's §4 sizing example: the SAVE
// interval K is the maximum number of messages that can be sent during one
// SAVE, K = ceil(T_save / T_send). The paper's Pentium III constants (100µs
// write, 4µs send, K = 25) and the stated inputs of sizingInputs go through
// core.SizeK; what a save and a send cost on a given host is bench/'s to
// measure.
func SaveIntervalSizing() (*Table, error) {
	t := &Table{
		ID:    "sizing",
		Title: "SAVE interval sizing: K = ceil(T_save / T_send) (§4)",
		Note: "The first row is the paper's worked example on a Pentium III 730MHz; the " +
			"others apply the rule to stated inputs, not measurements: a 1ms fsync'd commit " +
			"or a 5us page-cache write against a 1us (64 B) or 8us (1400 B) seal. K grows " +
			"with T_save and shrinks with T_send. The measured twin is bench/'s " +
			"paper.k_required (p99 probe SAVE over the end-to-end packet time).",
		Columns: []string{"medium", "t_save_us", "t_send_us", "K"},
	}
	for _, in := range sizingInputs {
		t.AddRow(in.medium,
			fmt.Sprintf("%.2f", float64(in.save.Nanoseconds())/1e3),
			fmt.Sprintf("%.2f", float64(in.send.Nanoseconds())/1e3),
			fmt.Sprint(core.SizeK(in.save, in.send)))
	}
	return t, nil
}
