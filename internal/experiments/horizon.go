package experiments

import (
	"fmt"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// lossJumpHorizon documents the reproduction's negative result (the
// analysis-gap note in README.md's "Tests and benchmarks" section): the
// paper's receiver-side theorem fails when a loss-induced sequence
// jump larger than the leap is delivered and its save is torn by a reset —
// the jumped message is then delivered twice. The strict-horizon variant
// drops the jump instead (extending its durable horizon with a save) and
// never duplicates; the jump is delivered exactly once when retransmitted
// after the horizon catches up. The jumps sweep across the 2K cliff at the
// paper's K.
func lossJumpHorizon() (*Table, error) {
	t := &Table{
		ID:    "horizon",
		Title: "Loss-jump + torn save + reset: paper protocol vs strict horizon",
		Note: fmt.Sprintf("K=%d, leap=2K=%d. Expect: paper variant delivers the jumped message twice once "+
			"jump > leap (the analysis gap); strict variant never duplicates and still delivers the "+
			"retransmission exactly once.", paperK, 2*paperK),
		Columns: []string{"jump", "variant", "jump_delivered", "replay_delivered",
			"dup_delivery", "retransmit_delivered", "safe"},
	}
	for _, jump := range []uint64{10, 40, 49, 51, 60, 200, 1000} {
		for _, strict := range []bool{false, true} {
			row, err := horizonRow(jump, strict)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func horizonRow(jump uint64, strict bool) ([]string, error) {
	const k uint64 = paperK
	var m store.Mem
	sv := &core.HeldSaver{Store: &m}
	r, err := core.NewReceiver(core.ReceiverConfig{
		K: k, W: 64, Store: &m, Saver: sv, StrictHorizon: strict,
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: 2K in-order deliveries, saves committed (sized K).
	base := 2 * k
	for s := uint64(1); s <= base; s++ {
		r.Admit(s)
		sv.CommitAll()
	}

	// Phase 2: seqs base+1 .. base+jump-1 are lost; base+jump arrives.
	jumpSeq := base + jump
	jumpDelivered := r.Admit(jumpSeq).Delivered()

	// Phase 3: reset tears whatever save phase 2 started; wake.
	r.Reset()
	r.Wake()
	sv.CommitAll()

	// Phase 4: the adversary replays the jumped message.
	replayDelivered := r.Admit(jumpSeq).Delivered()
	dup := jumpDelivered && replayDelivered

	// Phase 5: liveness — the sender retransmits (or traffic continues).
	// Commit saves between attempts: the horizon catches up.
	retransmitDelivered := false
	for try := 0; try < 4 && !retransmitDelivered; try++ {
		sv.CommitAll()
		v := r.Admit(jumpSeq)
		retransmitDelivered = v.Delivered()
	}
	deliveredOnce := jumpDelivered || replayDelivered || retransmitDelivered
	safe := !dup && deliveredOnce

	name := "paper"
	if strict {
		name = "strict"
	}
	return []string{
		fmt.Sprint(jump), name, fmt.Sprint(jumpDelivered), fmt.Sprint(replayDelivered),
		fmt.Sprint(dup), fmt.Sprint(retransmitDelivered), fmt.Sprint(safe),
	}, nil
}
