package experiments

import (
	"fmt"
	"math/rand"
	"os"

	"antireplay/internal/ike"
	"antireplay/internal/store"
)

// RecoveryConfig parameterizes the §3 recovery-cost comparison.
type RecoveryConfig struct {
	// SACounts is the sweep of concurrent SAs the reset host holds.
	SACounts []int
	// Seed drives key generation.
	Seed int64
}

// DefaultRecoveryConfig sweeps 1..64 SAs.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{SACounts: []int{1, 4, 16, 64}, Seed: 1}
}

// RecoveryCost counts the work of the two ways to recover from a reset: the
// IETF remedy — delete and renegotiate every SA with IKE (4 messages, 4
// modular exponentiations per SA pair) — against the paper's SAVE/FETCH
// wake-up (one FETCH and one synchronous SAVE per SA, no network traffic,
// no asymmetric crypto). The paper's §3 motivation is exactly this gap,
// "especially for a host with multiple existing SAs". The exchanges run
// over ike.TestGroup: a larger group changes what a modexp costs, not how
// many there are.
func RecoveryCost(cfg RecoveryConfig) (*Table, error) {
	t := &Table{
		ID:    "recovery",
		Title: "Reset recovery: IKE re-establishment vs SAVE/FETCH (§3)",
		Note: "Expect IKE work to grow linearly in the SA count — 4 messages and 4 " +
			"modular exponentiations per SA — against one FETCH, one SAVE and one fsync " +
			"per SA and zero network messages for SAVE/FETCH (one SA after another on a " +
			"one-lane journal, fsync on; a gateway's WakeAll shares one fsync per lane).",
		Columns: []string{"n_sas", "ike_msgs", "ike_modexps",
			"sf_msgs", "sf_fetches", "sf_saves", "sf_fsyncs"},
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

	for _, n := range cfg.SACounts {
		// IKE path: n full handshakes.
		msgs, modexps := 0, 0
		for i := 0; i < n; i++ {
			icfg := ike.Config{
				PSK:   []byte("recovery-bench-psk"),
				Rand:  rand.New(rand.NewSource(cfg.Seed + int64(i))),
				Group: ike.TestGroup(),
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

		// SAVE/FETCH path: per SA, one FETCH plus one synchronous SAVE of
		// the leaped value on its cell of a one-lane journal, fsync on — one
		// SA after another, so every SAVE pays its own fsync.
		stores := make([]*store.Cell, n)
		for i := range stores {
			stores[i] = lanes.Cell(fmt.Sprintf("sa-%d-%d", n, i))
			if err := stores[i].Save(uint64(1000 + i)); err != nil {
				return nil, fmt.Errorf("experiments: recovery seed store: %w", err)
			}
		}
		syncs := lanes.Syncs()
		fetches, saves := 0, 0
		for _, st := range stores {
			v, ok, err := st.Fetch()
			if err != nil || !ok {
				return nil, fmt.Errorf("experiments: recovery fetch: ok=%v err=%w", ok, err)
			}
			fetches++
			if err := st.Save(v + 50); err != nil {
				return nil, fmt.Errorf("experiments: recovery save: %w", err)
			}
			saves++
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(msgs), fmt.Sprint(modexps), "0",
			fmt.Sprint(fetches), fmt.Sprint(saves), fmt.Sprint(lanes.Syncs()-syncs))
	}
	return t, nil
}
