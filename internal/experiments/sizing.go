package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/stats"
	"antireplay/internal/store"
)

// SizingConfig parameterizes the §4 SAVE-interval sizing measurement.
type SizingConfig struct {
	// Samples is how many save/send operations to time per medium.
	Samples int
	// PayloadBytes is the message size for the send-cost measurement
	// (paper: 1000-byte messages).
	PayloadBytes int
}

// DefaultSizingConfig matches the paper's 1000-byte messages.
func DefaultSizingConfig() SizingConfig {
	return SizingConfig{Samples: 200, PayloadBytes: 1000}
}

// SaveIntervalSizing reproduces the paper's §4 sizing example: the SAVE
// interval K is the maximum number of messages that can be sent during one
// SAVE, so K = ceil(T_save / T_send). The paper's Pentium III constants
// (100µs write, 4µs send, K = 25) are replayed through the formula, and the
// same two costs are measured on this machine for an in-memory store and for
// a cell of a one-lane journal without and with fsync — the T_save a gateway
// actually pays.
func SaveIntervalSizing(cfg SizingConfig) (*Table, error) {
	t := &Table{
		ID:    "sizing",
		Title: "SAVE interval sizing: K = ceil(T_save / T_send) (§4)",
		Note: "Paper's worked example on a Pentium III 730MHz appears as the first row. " +
			"Measured rows use this machine's medians (timings, not reproducible run to run): " +
			"a lane row is one journal cell's Save, append + commit, without and with its fsync. " +
			"K scales with the persistence medium.",
		Columns: []string{"medium", "t_save_us", "t_send_us", "K"},
	}

	// Paper row: constants from §4.
	t.AddRow("paper-pentium3-disk", "100.00", "4.00", "25")

	tSend, err := measureSendCost(cfg)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "sizing-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: sizing tempdir: %w", err)
	}
	defer os.RemoveAll(dir)
	nosync, err := store.OpenLanes(filepath.Join(dir, "nosync"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		return nil, fmt.Errorf("experiments: sizing journal: %w", err)
	}
	defer nosync.Close()
	fsync, err := store.OpenLanes(filepath.Join(dir, "fsync"), store.LanesCount(1))
	if err != nil {
		return nil, fmt.Errorf("experiments: sizing journal: %w", err)
	}
	defer fsync.Close()

	media := []struct {
		name string
		st   store.Store
	}{
		{"mem", &store.Mem{}},
		{"lane-nosync", nosync.Cell("tx")},
		{"lane-fsync", fsync.Cell("tx")},
	}
	for _, m := range media {
		tSave, err := measureSaveCost(m.st, cfg.Samples)
		if err != nil {
			return nil, err
		}
		k := sizingK(tSave, tSend)
		t.AddRow(m.name,
			fmt.Sprintf("%.2f", float64(tSave.Nanoseconds())/1e3),
			fmt.Sprintf("%.2f", float64(tSend.Nanoseconds())/1e3),
			fmt.Sprint(k))
	}
	return t, nil
}

// sizingK applies the paper's rule with a floor of 1.
func sizingK(tSave, tSend time.Duration) uint64 { return core.SizeK(tSave, tSend) }

// measureSaveCost times st.Save and returns the median.
func measureSaveCost(st store.Store, samples int) (time.Duration, error) {
	if samples < 1 {
		samples = 1
	}
	var sm stats.Sample
	for i := 0; i < samples; i++ {
		start := time.Now()
		if err := st.Save(uint64(i)); err != nil {
			return 0, fmt.Errorf("experiments: sizing save: %w", err)
		}
		sm.Add(float64(time.Since(start).Nanoseconds()))
	}
	return time.Duration(sm.Median()), nil
}

// measureSendCost times the full per-message send path — sequence-number
// assignment plus ESP encapsulation (HMAC + AES-CTR) of a payload — and
// returns the median.
func measureSendCost(cfg SizingConfig) (time.Duration, error) {
	var m store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 1 << 30, Store: &m})
	if err != nil {
		return 0, err
	}
	keys := ipsec.KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0x5a}, ipsec.AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0xa5}, ipsec.EncKeySize),
	}
	out, err := ipsec.NewOutboundSA(1, keys, snd, false, ipsec.Lifetime{}, nil)
	if err != nil {
		return 0, err
	}
	payload := bytes.Repeat([]byte{0x42}, cfg.PayloadBytes)
	var sm stats.Sample
	for i := 0; i < cfg.Samples; i++ {
		start := time.Now()
		if _, err := out.Seal(payload); err != nil {
			return 0, fmt.Errorf("experiments: sizing seal: %w", err)
		}
		sm.Add(float64(time.Since(start).Nanoseconds()))
	}
	return time.Duration(sm.Median()), nil
}
