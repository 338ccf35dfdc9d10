package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"antireplay/internal/adversary"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/rekey"
	"antireplay/internal/testbed"
)

// CampaignsConfig parameterizes the campaigns and diskfault tables.
type CampaignsConfig struct {
	// Seed drives all randomness (key material, IKE nonces).
	Seed int64
	// Packets scales each row's traffic phases (per SA on the diskfault
	// rows); zero takes the table's own scale, 600 for campaigns and 40 for
	// diskfault.
	Packets int
	// Lanes is the lane count of single_lane_eio; zero takes 64, so its
	// one quarantined lane prices exactly the 1/64 fault domain. The other
	// rows use small fixed lane counts: their point is the fault shape, not
	// the fan-out.
	Lanes int
}

// campRow is one row's raw accounting before formatting.
type campRow struct {
	head      []string // the table's own cells between the name and sent
	sent      int      // data packets sealed at the sender
	delivered int      // unique wires the receiver delivered
	replays   int      // wires delivered more than once (the hard SLO: 0)
	cost      string   // campaign-side cost/effect accounting
}

func (r campRow) goodput() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.delivered) / float64(r.sent)
}

// campaignTables are the two tables the scenarios fill, each with the
// traffic scale a zero Packets takes.
var campaignTables = map[string]struct {
	Table
	packets int
}{
	"campaigns": {Table{
		ID:    "campaigns",
		Title: "Stealth-DoS campaigns: bounded degradation, zero replay acceptance",
		Note: "Each campaign runs against a baseline and a hardened defense knob. " +
			"Expect goodput >= floor on every row and replay_accepts = 0 everywhere: " +
			"well-timed interference degrades goodput boundedly but never breaks " +
			"exactly-once delivery. The hardened rows price the knobs: wider W " +
			"recovers the window-edge sniper's hostages, smaller K shrinks the " +
			"storm-parked reset sacrifice and the takeover wake window (both " +
			"bounded by the leap, 2K), and a deeper IKE retry budget rides " +
			"through exchange suppression without abandoning the rollover.",
		Columns: []string{"campaign", "defense", "sent", "delivered", "goodput",
			"floor", "attack_cost", "replay_accepts"},
	}, 600},
	"diskfault": {Table{
		ID:    "diskfault",
		Title: "Storage fault domains: quarantine, bounded degradation, lane repair",
		Note: "Each campaign injects scheduled I/O faults under a live gateway. " +
			"Expect replay_accepts = 0 on every row, and every SA on a healthy lane " +
			"at full throughput (the row fails otherwise): a poisoned lane " +
			"quarantines alone, its SAs stalling at the durable horizon after the " +
			"bounded 2K grace. ENOSPC rows are transient: rescued by compaction, " +
			"no quarantine, no stranded temps. The EIO row repairs the dead " +
			"lane from the standby's replica and the stalled SAs resume.",
		Columns: []string{"campaign", "fault", "lanes", "quarantined", "stalled", "sent",
			"delivered", "goodput", "floor", "detail", "replay_accepts"},
	}, 40},
}

// campaignScenarios are every row group of both tables, in presentation
// order, with one floor per row. The table loop holds every row to its
// floor and to zero replay acceptances: no wire is ever delivered twice,
// not under edge-adjacent duplicate injection, a recorded-traffic flood
// into the failover wake window, a quarantine or a lane repair, and not
// when the whole wiretap is replayed afterwards. Each run holds its own
// rows to the rest: a campaign's hardened knob must improve its bound, and
// a disk fault must stay in its lane, never regress a durable counter, and
// leave repair able to restore service.
//
// Every campaign computes its decisions from bytes observable on the wire
// (cleartext ESP sequence numbers, SPI changes) plus protocol knowledge
// (K); none peeks at victim state.
var campaignScenarios = []struct {
	table, name string
	floors      []float64
	run         func(cfg CampaignsConfig) ([]campRow, error)
}{
	// W=64 is narrower than the snipe's HoldDepth, so hostages land stale;
	// W=256 holds them, merely late.
	{"campaigns", "window_edge", []float64{0.90, 0.99}, func(cfg CampaignsConfig) ([]campRow, error) {
		return hardened(cfg, snipeRow, 64, 256)
	}},
	// The wake leap 2K makes the parked reset expensive at K=240; the
	// adaptive-K defense shrinks the leap and the sacrifice.
	{"campaigns", "save_storm", []float64{0.50, 0.72}, func(cfg CampaignsConfig) ([]campRow, error) {
		return hardened(cfg, stormRow, 240, 30)
	}},
	{"campaigns", "rekey_cutover", []float64{0.85, 0.85}, rekeyCutRows},
	// The wake window after takeover is about the leap, 2K.
	{"campaigns", "blackout_flood", []float64{0.45, 0.82}, func(cfg CampaignsConfig) ([]campRow, error) {
		return hardened(cfg, floodRow, 200, 25)
	}},
	{"diskfault", "fsync_storm", []float64{0.75}, fsyncStormRow},
	{"diskfault", "enospc_compact", []float64{0.99}, enospcCompactRow},
	{"diskfault", "single_lane_eio", []float64{0.75}, singleLaneEIORow},
}

// Campaign runs the rows of one named scenario of either table (resetsim's
// -campaign flag).
func Campaign(cfg CampaignsConfig, name string) (*Table, error) {
	var names []string
	for _, s := range campaignScenarios {
		if s.name == name {
			return campaignTable(s.table, cfg, name)
		}
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("experiments: unknown campaign %q (have %v)", name, names)
}

// campaignTable runs table id's scenarios, or only the one called only,
// and holds every row to the shared floors.
func campaignTable(id string, cfg CampaignsConfig, only string) (*Table, error) {
	spec := campaignTables[id]
	t := spec.Table
	if cfg.Packets == 0 {
		cfg.Packets = spec.packets
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = 64
	}
	for _, s := range campaignScenarios {
		if s.table != id || (only != "" && s.name != only) {
			continue
		}
		rows, err := s.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", id, s.name, err)
		}
		for i, r := range rows {
			if r.replays != 0 {
				return nil, fmt.Errorf("experiments: %s %s (%s): %d replay acceptances",
					id, s.name, r.head[0], r.replays)
			}
			if g := r.goodput(); g < s.floors[i] {
				return nil, fmt.Errorf("experiments: %s %s (%s): goodput %.3f below floor %.2f",
					id, s.name, r.head[0], g, s.floors[i])
			}
			cells := append([]string{s.name}, r.head...)
			t.AddRow(append(cells, fmt.Sprint(r.sent), fmt.Sprint(r.delivered),
				fmt.Sprintf("%.1f%%", 100*r.goodput()), fmt.Sprintf("%.0f%%", 100*s.floors[i]),
				r.cost, fmt.Sprint(r.replays))...)
		}
	}
	return &t, nil
}

// hardened runs one campaign at its baseline and its hardened knob setting
// and requires the hardened row to deliver a larger share.
func hardened[K any](cfg CampaignsConfig, row func(CampaignsConfig, K) (campRow, error), base, hard K) ([]campRow, error) {
	b, err := row(cfg, base)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	h, err := row(cfg, hard)
	if err != nil {
		return nil, fmt.Errorf("hardened: %w", err)
	}
	if h.goodput() <= b.goodput() {
		return nil, fmt.Errorf("hardened goodput %.3f <= baseline %.3f", h.goodput(), b.goodput())
	}
	return []campRow{b, h}, nil
}

// campPayload is every row's payload size.
const campPayload = 280

// campPair is one row's topology: a testbed pair whose i-th SA from A to B
// carries src[i] -> dst.
type campPair struct {
	*testbed.Pair
	spis []uint32
	src  []netip.Addr
	dst  netip.Addr
}

func newCampPair(bed testbed.Config) (*campPair, error) {
	p, err := testbed.New(bed)
	if err != nil {
		return nil, err
	}
	return &campPair{Pair: p, dst: netip.AddrFrom4([4]byte{10, 9, 0, 1})}, nil
}

// oneSAPair is a gated pair carrying one SA with seeded keys, the
// adversary on the gate.
func oneSAPair(cfg CampaignsConfig, bed testbed.Config) (*campPair, error) {
	bed.Link = testbed.Gated
	p, err := newCampPair(bed)
	if err != nil {
		return nil, err
	}
	if err := p.install(0xC100, randKeys(rand.New(rand.NewSource(cfg.Seed+400)))); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func randKeys(rng *rand.Rand) ipsec.KeyMaterial {
	keys := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	rng.Read(keys.AuthKey)
	return keys
}

// install adds one SA from A to B under the next source address.
func (p *campPair) install(spi uint32, keys ipsec.KeyMaterial) error {
	i := len(p.spis)
	src := netip.AddrFrom4([4]byte{10, 3, byte(i >> 8), byte(i)})
	if err := testbed.Install(p.A.GW, p.B.GW, spi, keys, src, p.dst); err != nil {
		return err
	}
	p.spis, p.src = append(p.spis, spi), append(p.src, src)
	return nil
}

// send is every row's traffic: n rounds of one packet per SA, each sealed
// at A and sent to B. It returns each SA's deliveries as Send reported
// them, so a packet a quarantined lane refuses is not counted; through a
// gate Send reports none, and the audit holds the count.
func (p *campPair) send(n int) ([]int, error) {
	got := make([]int, len(p.spis))
	payload := make([]byte, campPayload)
	for k := 0; k < n; k++ {
		for i, src := range p.src {
			w, err := p.Seal(src, p.dst, payload)
			if err != nil {
				return nil, err
			}
			_, v, err := p.Send(w)
			if err != nil {
				return nil, err
			}
			if v.Delivered() {
				got[i]++
			}
		}
	}
	return got, nil
}

// row is the audit's account of the traffic so far.
func (p *campPair) row(cost string, head ...string) campRow {
	return campRow{head: head, sent: p.Sent(), delivered: p.Delivered(), replays: p.Replays(), cost: cost}
}

// snipeRow prices the window-edge snipe against window width w: every
// 16th packet is held back 96 packets and re-released, plus an
// edge-adjacent duplicate injection every 10th. A window wider than the
// hold depth delivers the hostages late; a narrower one silently loses
// them (with ESN the deep-late packets fail ICV under the wrong inferred
// epoch — either way, goodput the victim never sees).
func snipeRow(cfg CampaignsConfig, w int) (campRow, error) {
	p, err := oneSAPair(cfg, testbed.Config{K: 25, W: w})
	if err != nil {
		return campRow{}, err
	}
	defer p.Close()
	snipe := adversary.NewWindowEdgeSnipe(adversary.SnipeConfig{
		HoldEvery: 16, HoldDepth: 96, DupEvery: 10,
	})
	if err := snipe.Arm(adversary.Hooks{Gate: p.Gate}); err != nil {
		return campRow{}, err
	}
	snipe.Activate()
	if _, err := p.send(cfg.Packets); err != nil {
		return campRow{}, err
	}
	snipe.Deactivate()
	if err := p.ReplayAll(); err != nil {
		return campRow{}, err
	}
	st := snipe.Stats()
	return p.row(fmt.Sprintf("held %d, dups %d", st.Held, st.DupsInjected), fmt.Sprintf("W=%d", w)), nil
}

// stormRow prices the SAVE-storm against SAVE interval k: the storm
// drops the strike zone below every SAVE boundary (bounded cost,
// BurstLen per K), then the receiver is crashed at a Parked instant.
// The wake sacrifice is bounded by the leap (2K), so the adaptive-K
// defense — a smaller K — shrinks the reset bill the storm set up.
func stormRow(cfg CampaignsConfig, k uint64) (campRow, error) {
	p, err := oneSAPair(cfg, testbed.Config{K: k, W: 64})
	if err != nil {
		return campRow{}, err
	}
	defer p.Close()
	storm, err := adversary.NewSaveStorm(adversary.StormConfig{K: k})
	if err != nil {
		return campRow{}, err
	}
	if err := storm.Arm(adversary.Hooks{Gate: p.Gate}); err != nil {
		return campRow{}, err
	}
	storm.Activate()
	if _, err := p.send(2 * cfg.Packets); err != nil {
		return campRow{}, err
	}
	// Walk the sender into the strike zone so the crash lands at the
	// storm's point of maximal damage, let the receiver's last SAVE land,
	// then crash and wake the receiver.
	for extra := uint64(0); !storm.Parked() && extra < k; extra++ {
		if _, err := p.send(1); err != nil {
			return campRow{}, err
		}
	}
	if err := p.Settle(); err != nil {
		return campRow{}, err
	}
	p.B.GW.ResetAll()
	if err := p.B.GW.WakeAll(); err != nil {
		return campRow{}, err
	}
	if _, err := p.send(2 * cfg.Packets); err != nil {
		return campRow{}, err
	}
	storm.Deactivate()
	if err := p.ReplayAll(); err != nil {
		return campRow{}, err
	}
	st := storm.Stats()
	return p.row(fmt.Sprintf("dropped %d, parked reset", st.Dropped), fmt.Sprintf("K=%d", k)), nil
}

func campIKE(seed int64, id string) ike.Config {
	return ike.Config{PSK: []byte("campaign-experiment"), Group: ike.TestGroup(),
		Rand: rand.New(rand.NewSource(seed)), ID: id}
}

// rekeyCutRows prices exchange suppression against the retry budget. A
// shallow budget (MaxAttempts=2) abandons the trigger repeatedly before
// converging; a deep one (12) rides the suppression out in one trigger.
func rekeyCutRows(cfg CampaignsConfig) ([]campRow, error) {
	base, bs, err := rekeyCutRow(cfg, 2)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	hard, hs, err := rekeyCutRow(cfg, 12)
	if err != nil {
		return nil, fmt.Errorf("hardened: %w", err)
	}
	if bs.Abandoned == 0 || hs.Abandoned != 0 {
		return nil, fmt.Errorf("abandoned base=%d hard=%d, want >0 / 0", bs.Abandoned, hs.Abandoned)
	}
	if bs.Rollovers == 0 || hs.Rollovers == 0 {
		return nil, fmt.Errorf("rollover never converged (base=%d hard=%d)", bs.Rollovers, hs.Rollovers)
	}
	return []campRow{base, hard}, nil
}

// rekeyCutRow runs one retry budget: the campaign eats the first 6
// exchange attempts and fires a 48-packet blackout at the cutover it
// cannot ultimately prevent.
func rekeyCutRow(cfg CampaignsConfig, maxAttempts int) (campRow, rekey.Stats, error) {
	p, err := newCampPair(testbed.Config{
		K: 25, W: 64, Link: testbed.Gated,
		// The soft lifetime (about 300 wire bytes a packet) trips midway
		// through phase 1.
		Lifetime: ipsec.Lifetime{SoftBytes: uint64(cfg.Packets) * 300 / 2},
	})
	if err != nil {
		return campRow{}, rekey.Stats{}, err
	}
	defer p.Close()

	cut := adversary.NewRekeyCut(adversary.RekeyCutConfig{
		SuppressExchanges: 6, BlackoutPackets: 48,
	})
	if err := cut.Arm(adversary.Hooks{Gate: p.Gate}); err != nil {
		return campRow{}, rekey.Stats{}, err
	}

	res, err := ike.Establish(campIKE(cfg.Seed+201, "init"), campIKE(cfg.Seed+202, "resp"))
	if err != nil {
		return campRow{}, rekey.Stats{}, err
	}
	kk := res.Keys
	if err := p.install(kk.SPIInitToResp, kk.InitToResp); err != nil {
		return campRow{}, rekey.Stats{}, err
	}
	// The reverse direction exists so the orchestrator can track the pair.
	if err := testbed.Install(p.B.GW, p.A.GW, kk.SPIRespToInit, kk.RespToInit, p.dst, p.src[0]); err != nil {
		return campRow{}, rekey.Stats{}, err
	}

	var vt time.Duration
	exchangeSeed := cfg.Seed + 300
	o, err := rekey.New(rekey.Config{
		A: p.A.GW, B: p.B.GW,
		Grace:       time.Hour,
		MaxAttempts: maxAttempts,
		Clock:       func() time.Duration { vt += 10 * time.Microsecond; return vt },
		Observer: func(ev rekey.Event) {
			if ev.Kind == rekey.EventCutover {
				cut.OnCutover()
			}
		},
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			if cut.SuppressExchange() {
				return ike.ChildKeys{}, fmt.Errorf("exchange messages eaten by the adversary")
			}
			exchangeSeed++
			res, err := ike.RekeyChild(campIKE(exchangeSeed, "gw-a"), campIKE(exchangeSeed+1000, "gw-b"), oldAB, oldBA)
			return res.Keys, err
		},
	})
	if err != nil {
		return campRow{}, rekey.Stats{}, err
	}
	if _, err := o.Track(kk.SPIInitToResp, kk.SPIRespToInit); err != nil {
		return campRow{}, rekey.Stats{}, err
	}

	// Phase 1: traffic past the soft lifetime, then the attack window
	// opens and the rollover fights through the suppression.
	if _, err := p.send(cfg.Packets); err != nil {
		return campRow{}, rekey.Stats{}, err
	}
	cut.Activate()
	for polls := 0; o.Stats().Rollovers < 1; polls++ {
		if polls > 8*maxAttempts+40 {
			return campRow{}, rekey.Stats{}, fmt.Errorf("rollover never converged: %+v", o.Stats())
		}
		o.Poll() //nolint:errcheck // suppressed exchanges retry on the next poll
	}

	// Phase 2: the cutover blackout eats a bounded run of packets.
	if _, err := p.send(cfg.Packets); err != nil {
		return campRow{}, rekey.Stats{}, err
	}
	cut.Deactivate()
	if err := p.ReplayAll(); err != nil {
		return campRow{}, rekey.Stats{}, err
	}

	st, cs := o.Stats(), cut.Stats()
	return p.row(fmt.Sprintf("suppressed %d, abandoned %d, blackout %d", cs.Suppressed, st.Abandoned, cs.BlackoutDrops),
		fmt.Sprintf("MaxAttempts=%d", maxAttempts)), st, nil
}

// floodRow prices the failover-blackout replay flood against SAVE
// interval k: the campaign wiretaps all traffic, the primary crashes,
// and the recorded burst is injected exactly in the takeover wake window
// (via the cluster promotion hook). The SLO is absolute — zero replay
// acceptances even then; the k knob prices the wake window's
// false-reject bill (bounded by leap + replication lag).
func floodRow(cfg CampaignsConfig, k uint64) (campRow, error) {
	flood := adversary.NewBlackoutFlood(adversary.BlackoutFloodConfig{MaxBurst: 256})
	p, err := oneSAPair(cfg, testbed.Config{
		K: k, W: 64,
		// The campaign's hook point: the flood fires inside the takeover
		// wake window, between the epoch fence and the wake itself; the
		// pair lands it on the promoted node as that comes up.
		OnPromote: func(epoch uint64) { flood.OnTakeover(epoch) },
	})
	if err != nil {
		return campRow{}, err
	}
	defer p.Close()
	if err := flood.Arm(adversary.Hooks{Gate: p.Gate}); err != nil {
		return campRow{}, err
	}
	if err := p.AddStandby(); err != nil {
		return campRow{}, err
	}

	// Phase 1: recorded traffic through the primary.
	if _, err := p.send(cfg.Packets); err != nil {
		return campRow{}, err
	}

	// Let the primary's last SAVE land (and reach the sync standby), then
	// crash it; the flood arms and fires inside the promotion wake window.
	if err := p.Settle(); err != nil {
		return campRow{}, err
	}
	flood.Activate()
	p.B.GW.ResetAll()
	if _, err := p.Promote(); err != nil {
		return campRow{}, err
	}
	flood.Deactivate()

	// Phase 2: fresh traffic pays the wake window's false-reject bill.
	if _, err := p.send(cfg.Packets); err != nil {
		return campRow{}, err
	}
	if err := p.ReplayAll(); err != nil {
		return campRow{}, err
	}

	st := flood.Stats()
	return p.row(fmt.Sprintf("recorded %d, flooded %d", st.Recorded, st.Flooded), fmt.Sprintf("K=%d", k)), nil
}
