package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"antireplay/internal/ike"
	"antireplay/internal/store"
)

// RecoveryConfig parameterizes the §3 recovery-cost comparison.
type RecoveryConfig struct {
	// SACounts is the sweep of concurrent SAs the reset host holds.
	SACounts []int
	// FastDH swaps the 2048-bit group for a small test group; the shape
	// (relative scaling) is identical, the absolute times much smaller.
	FastDH bool
	// Seed drives key generation.
	Seed int64
}

// DefaultRecoveryConfig sweeps 1..64 SAs with real group-14 DH.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{SACounts: []int{1, 4, 16, 64}, Seed: 1}
}

// RecoveryCost prices the two ways to recover from a reset: the IETF
// remedy — delete and renegotiate every SA with IKE (4 messages, 4 modular
// exponentiations per SA pair) — against the paper's SAVE/FETCH wake-up
// (one FETCH and one synchronous SAVE per SA, no network traffic, no
// asymmetric crypto). The paper's §3 motivation is exactly this gap,
// "especially for a host with multiple existing SAs".
func RecoveryCost(cfg RecoveryConfig) (*Table, error) {
	t := &Table{
		ID:    "recovery",
		Title: "Reset recovery: IKE re-establishment vs SAVE/FETCH (§3)",
		Note: "Expect IKE cost to grow linearly in the SA count and exceed SAVE/FETCH by " +
			"orders of magnitude; SAVE/FETCH needs zero network messages.",
		Columns: []string{"n_sas", "ike_ms", "ike_msgs", "ike_modexps",
			"savefetch_ms", "sf_msgs", "speedup"},
	}

	dir, err := os.MkdirTemp("", "recovery-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: recovery tempdir: %w", err)
	}
	defer os.RemoveAll(dir)
	lanes, err := store.OpenLanes(dir, store.LanesCount(1))
	if err != nil {
		return nil, fmt.Errorf("experiments: recovery journal: %w", err)
	}
	defer lanes.Close()

	var group *ike.Group
	if cfg.FastDH {
		group = ike.TestGroup()
	}

	for _, n := range cfg.SACounts {
		// IKE path: n full handshakes.
		ikeStart := time.Now()
		msgs, modexps := 0, 0
		for i := 0; i < n; i++ {
			icfg := ike.Config{
				PSK:   []byte("recovery-bench-psk"),
				Rand:  rand.New(rand.NewSource(cfg.Seed + int64(i))),
				Group: group,
				ID:    "initiator",
			}
			rcfg := icfg
			rcfg.Rand = rand.New(rand.NewSource(cfg.Seed + int64(i) + 1e6))
			rcfg.ID = "responder"
			res, err := ike.Establish(icfg, rcfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: recovery handshake: %w", err)
			}
			msgs += res.Messages
			modexps += res.InitiatorStats.ModExps + res.ResponderStats.ModExps
		}
		ikeElapsed := time.Since(ikeStart)

		// SAVE/FETCH path: per SA, one FETCH plus one synchronous SAVE of
		// the leaped value on its cell of a one-lane journal, fsync on — one
		// SA after another, so every SAVE pays its own fsync (a gateway's
		// WakeAll shares one per lane and costs less still).
		stores := make([]*store.Cell, n)
		for i := range stores {
			stores[i] = lanes.Cell(fmt.Sprintf("sa-%d-%d", n, i))
			if err := stores[i].Save(uint64(1000 + i)); err != nil {
				return nil, fmt.Errorf("experiments: recovery seed store: %w", err)
			}
		}
		sfStart := time.Now()
		for _, st := range stores {
			v, ok, err := st.Fetch()
			if err != nil || !ok {
				return nil, fmt.Errorf("experiments: recovery fetch: ok=%v err=%w", ok, err)
			}
			if err := st.Save(v + 50); err != nil {
				return nil, fmt.Errorf("experiments: recovery save: %w", err)
			}
		}
		sfElapsed := time.Since(sfStart)

		speedup := float64(ikeElapsed) / float64(sfElapsed)
		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.3f", ikeElapsed.Seconds()*1e3),
			fmt.Sprint(msgs),
			fmt.Sprint(modexps),
			fmt.Sprintf("%.3f", sfElapsed.Seconds()*1e3),
			"0",
			fmt.Sprintf("%.1fx", speedup))
	}
	return t, nil
}
