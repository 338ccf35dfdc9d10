// Command resetsim runs one simulated sender→receiver flow with configurable
// impairments, reset schedule, and adversary, and prints the outcome
// accounting. It is the interactive companion to the fixed experiment suite
// in cmd/benchtables.
//
// Example: the §3 catastrophe, then the paper's fix:
//
//	resetsim -baseline -msgs 2000 -reset-receiver 1500 -replay
//	resetsim           -msgs 2000 -reset-receiver 1500 -replay
//
// With -rekey-every n the simulation switches from a bare sender→receiver
// flow to a journal-backed gateway pair whose tunnel is rolled over by the
// rekey orchestrator every n delivered packets (make-before-break: install
// inbound, cut outbound, drain, retire). -loss then also applies to the
// rekey exchange's messages (lost messages retry), and -reset-receiver N
// crashes the whole receiver gateway mid-exchange at the first rollover
// after N deliveries:
//
//	resetsim -rekey-every 500 -msgs 2000 -loss 0.05 -reset-receiver 800
//
// With -campaign=<name> the simulation instead runs one of the stealth-DoS
// campaigns from the adversary layer (window_edge, save_storm, rekey_cutover,
// blackout_flood) at its baseline and hardened defense settings and prints
// the bounded-degradation table row pair:
//
//	resetsim -campaign=window_edge -msgs 600
package main

import (
	cryptorand "crypto/rand"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/experiments"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/rekey"
	"antireplay/internal/testbed"
	wirenet "antireplay/internal/wire"
)

// simFlow is the gateway modes' topology and traffic source: a testbed pair
// — sender and receiver gateways on fsynced media, joined in process by
// default or, with -transport=udp, across a real UDP-encapsulated loopback
// socket pair (per-peer demux by SPI, non-ESP marker for the IKE control
// lane) — carrying one IKE-established tunnel from src to dst, with seeded
// link loss and the outcome counts both modes report.
type simFlow struct {
	*testbed.Pair
	rng      *rand.Rand
	loss     float64
	tele     *simTelemetry
	src, dst netip.Addr
	keys     ike.ChildKeys

	delivered, sacrificed, lost uint64
}

func newSimFlow(seed int64, loss float64, k uint64, w, lanes int, transport string, tele *simTelemetry) (*simFlow, error) {
	cfg := testbed.Config{
		K: k, W: w, Lanes: lanes, Sync: true,
		OnLifecycle: tele.onLifecycle(),
		OnPromote:   tele.onPromote(),
		OnPoison:    ipsec.LaneFaultRecorder(tele.events()),
		OnStall:     tele.countStall,
	}
	if transport == "udp" {
		cfg.Link = testbed.UDP
	}
	p, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	if p.Tx != nil {
		fmt.Printf("transport: UDP loopback %v <-> %v\n", p.Rx.Peer(), p.Tx.Peer())
		tele.registerLink(p.Tx)
	}
	f := &simFlow{
		Pair: p, rng: rand.New(rand.NewSource(seed)), loss: loss, tele: tele,
		src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
	}
	res, err := ike.Establish(f.ikeCfg("gw-a"), f.ikeCfg("gw-b"))
	if err == nil {
		f.keys = res.Keys
		p.RegisterSPI(f.keys.SPIInitToResp)
		err = testbed.Install(p.A.GW, p.B.GW, f.keys.SPIInitToResp, f.keys.InitToResp, f.src, f.dst)
	}
	if err != nil {
		p.Close()
		return nil, err
	}
	return f, nil
}

// ikeCfg draws one IKE party's configuration from the flow's seed.
func (f *simFlow) ikeCfg(id string) ike.Config {
	return ike.Config{PSK: []byte("resetsim"), ID: id,
		Rand: rand.New(rand.NewSource(f.rng.Int63()))}
}

// step seals one payload, loses it with the link's probability, and
// otherwise carries it to the receiver, counting the outcome. The verdict
// is zero for a packet the link lost.
func (f *simFlow) step() (core.Verdict, error) {
	wire, err := f.Seal(f.src, f.dst, []byte("resetsim payload"))
	if err != nil {
		return 0, err
	}
	if f.rng.Float64() < f.loss {
		f.lost++
		f.tele.countLost()
		return 0, nil
	}
	_, verdict, err := f.Send(wire)
	if err != nil {
		return 0, err
	}
	if verdict.Delivered() {
		f.delivered++
		f.tele.countDelivered()
	} else {
		f.sacrificed++
		f.tele.countSacrificed()
	}
	return verdict, nil
}

// report plays the adversary — the entire recorded history replayed at the
// receiver, over the same transport the live traffic used — and prints the
// result: a second delivery of any wire is a safety violation and the exit
// error.
func (f *simFlow) report(across string) error {
	if err := f.ReplayAll(); err != nil {
		return err
	}
	fmt.Printf("replayed full history: %d re-accepted (MUST be 0)\n", f.Replays())
	if f.Replays() > 0 {
		return fmt.Errorf("SAFETY VIOLATION: %d replays accepted across %s", f.Replays(), across)
	}
	return nil
}

// controlTimeout bounds each party's wait on the IKE control lane.
const controlTimeout = 625 * time.Millisecond

// timeoutConn is an ike.Conn over a link's control lane with a bounded
// Recv, so a deliberately dropped exchange message cannot hang a party.
type timeoutConn struct{ l *wirenet.UDPLink }

func (c timeoutConn) Send(p []byte) error { return c.l.SendControl(p) }

func (c timeoutConn) Recv() ([]byte, error) { return c.l.RecvControlTimeout(controlTimeout) }

// rekeyExchange runs the one-round-trip rekey over the control lane,
// with fault injection: a "lost" message is simply never sent (request)
// or never processed (response), exactly as the in-process mode models
// it. The responder serves concurrently, as a real peer would.
func rekeyExchange(tx, rx *wirenet.UDPLink, ini *ike.RekeyInitiator, rsp *ike.RekeyResponder,
	m1 []byte, reqLost, respLost bool) (ike.ChildKeys, error) {

	srv := make(chan error, 1)
	go func() { srv <- ike.ServeRekey(rsp, timeoutConn{rx}) }()
	conn := timeoutConn{tx}

	if reqLost {
		<-srv // responder times out on the dropped request
		return ike.ChildKeys{}, errors.New("rekey request lost")
	}
	if err := conn.Send(m1); err != nil {
		<-srv
		return ike.ChildKeys{}, err
	}
	if err := <-srv; err != nil {
		return ike.ChildKeys{}, err
	}
	m2, err := conn.Recv()
	if err != nil {
		return ike.ChildKeys{}, err
	}
	if respLost {
		return ike.ChildKeys{}, errors.New("rekey response lost")
	}
	if err := ini.HandleResponse(m2); err != nil {
		return ike.ChildKeys{}, err
	}
	return ini.ChildKeys(), nil
}

// runTable is the -campaign and -diskfault modes: render one named table,
// or exit 1 with its error. -msgs retargets the phase length from the
// mode's default only when given explicitly; the flow-mode default of 10000
// would make the suite crawl.
func runTable(msgs uint64, packets int, table func(packets int) (*experiments.Table, error)) {
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "msgs" {
			packets = int(msgs)
		}
	})
	tbl, err := table(packets)
	if err == nil {
		err = tbl.Render(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "simulation seed")
		kp       = flag.Uint64("kp", 25, "sender SAVE interval Kp")
		kq       = flag.Uint64("kq", 25, "receiver SAVE interval Kq")
		w        = flag.Int("w", 64, "anti-replay window width")
		msgs     = flag.Uint64("msgs", 10000, "messages to send")
		baseline = flag.Bool("baseline", false, "use the §2 baseline (no SAVE/FETCH)")
		loss     = flag.Float64("loss", 0, "link loss probability")
		reorder  = flag.Float64("reorder", 0, "link reorder probability")
		reorderD = flag.Duration("reorder-delay", 200*time.Microsecond, "max reorder hold-back")
		dup      = flag.Float64("dup", 0, "link duplication probability")
		rstSnd   = flag.Uint64("reset-sender", 0, "reset the sender after this many sends (0 = never)")
		rstRcv   = flag.Uint64("reset-receiver", 0, "reset the receiver after observing this many messages (0 = never)")
		outage   = flag.Duration("outage", time.Millisecond, "reset outage duration")
		replay   = flag.Bool("replay", false, "adversary replays the full history after the receiver wake-up")
		leap     = flag.Float64("leap", 0, "leap factor override (0 = paper's 2)")
		rekeyN   = flag.Uint64("rekey-every", 0, "roll the SA over every n delivered packets on a gateway pair (0 = plain flow mode)")
		failN    = flag.Uint64("failover-every", 0, "crash the receiver gateway and promote its cluster standby every n delivered packets (0 = no cluster)")
		lanesN   = flag.Int("lanes", 1, "journal commit lanes per node in the gateway modes")
		sasN     = flag.Int("sas", 1, "total inbound SAs on the cluster node in failover mode (extras spread across lanes and wake on every takeover)")
		trans    = flag.String("transport", "mem", "gateway-mode wire transport: mem (in-process) or udp (real UDP-encapsulated loopback sockets)")
		campaign = flag.String("campaign", "", "run one stealth-DoS campaign (baseline + hardened rows) and exit: window_edge, save_storm, rekey_cutover, or blackout_flood")
		diskflt  = flag.String("diskfault", "", "run one disk-chaos campaign and exit: fsync_storm, enospc_compact, or single_lane_eio")
		metrics  = flag.String("metrics", "", "serve /metrics, /healthz, /saz, /events, and pprof on this address in the gateway modes (e.g. :9100; :0 picks a free port)")
	)
	flag.Parse()

	if *campaign != "" {
		cfg := experiments.DefaultCampaignsConfig()
		cfg.Seed = *seed
		runTable(*msgs, cfg.Packets, func(packets int) (*experiments.Table, error) {
			cfg.Packets = packets
			return experiments.CampaignsOnly(cfg, *campaign)
		})
		return
	}
	if *diskflt != "" {
		cfg := experiments.DefaultDiskfaultConfig()
		cfg.Seed = *seed
		runTable(*msgs, cfg.Packets, func(packets int) (*experiments.Table, error) {
			cfg.Packets = packets
			return experiments.DiskfaultOnly(cfg, *diskflt)
		})
		return
	}
	if *rekeyN > 0 && *failN > 0 {
		fmt.Fprintln(os.Stderr, "resetsim: -rekey-every and -failover-every are separate modes")
		os.Exit(2)
	}
	if *trans != "mem" && *trans != "udp" {
		fmt.Fprintf(os.Stderr, "resetsim: unknown -transport %q (mem or udp)\n", *trans)
		os.Exit(2)
	}
	if *trans == "udp" && *rekeyN == 0 && *failN == 0 {
		fmt.Fprintln(os.Stderr, "resetsim: -transport=udp applies to the gateway modes (-rekey-every / -failover-every)")
		os.Exit(2)
	}
	if *metrics != "" && *rekeyN == 0 && *failN == 0 {
		fmt.Fprintln(os.Stderr, "resetsim: -metrics applies to the gateway modes (-rekey-every / -failover-every)")
		os.Exit(2)
	}
	var tele *simTelemetry
	if *metrics != "" {
		var err error
		if tele, err = newSimTelemetry(*metrics); err != nil {
			fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
			os.Exit(1)
		}
		defer tele.close()
		fmt.Printf("metrics: listening on %s\n", tele.addr())
	}
	if *failN > 0 {
		if err := runFailoverSim(*seed, *msgs, *failN, *loss, *kq, *w, *lanesN, *sasN, *trans, tele); err != nil {
			fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
			os.Exit(1)
		}
		tele.dumpEvents()
		return
	}
	if *rekeyN > 0 {
		if err := runRekeySim(*seed, *msgs, *rekeyN, *rstRcv, *loss, *kq, *w, *lanesN, *trans, tele); err != nil {
			fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
			os.Exit(1)
		}
		tele.dumpEvents()
		return
	}

	cfg := experiments.DefaultFlowConfig(*seed)
	cfg.Kp, cfg.Kq, cfg.W = *kp, *kq, *w
	cfg.Baseline = *baseline
	cfg.LeapFactor = *leap
	cfg.Link = netsim.LinkConfig{
		Delay:        cfg.Link.Delay,
		LossProb:     *loss,
		DupProb:      *dup,
		ReorderProb:  *reorder,
		ReorderDelay: *reorderD,
	}
	if *reorder == 0 {
		cfg.Link.ReorderDelay = 0
	}

	f, err := experiments.NewFlow(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
		os.Exit(1)
	}

	if *rstSnd > 0 {
		f.AtSendCount(*rstSnd, func() {
			fmt.Printf("t=%v  sender reset (wake in %v)\n", f.Engine.Now(), *outage)
			f.Sender.Reset()
			f.Engine.After(*outage, f.Sender.Wake)
		})
	}
	if *rstRcv > 0 {
		f.AtObserveCount(*rstRcv, func() {
			fmt.Printf("t=%v  receiver reset (wake in %v)\n", f.Engine.Now(), *outage)
			if *replay {
				// The replay attack is strongest while the sender is quiet
				// (fresh traffic would slam the window shut ahead of the
				// replays); give the adversary its §3 best case.
				f.StopTraffic()
				fmt.Printf("t=%v  sender goes quiet (adversary's best case)\n", f.Engine.Now())
			}
			f.Receiver.Reset()
			f.Engine.After(*outage, func() {
				f.Receiver.Wake()
				if *replay {
					at := f.Engine.Now() + cfg.SaveDelay*2
					n := f.Replayer.ReplayAllAt(at, cfg.SendInterval)
					fmt.Printf("t=%v  adversary schedules %d replays\n", f.Engine.Now(), n)
				}
			})
		})
	}

	f.AtSendCount(*msgs, f.StopTraffic)
	f.StartTraffic(time.Hour)
	f.Run(time.Duration(*msgs)*cfg.SendInterval*4 + *outage*4 + time.Second)

	fmt.Printf("\nsent=%d skipped_while_down=%d last_seq=%d\n", f.Sent(), f.SkippedSends(), f.LastSent())
	fmt.Printf("link: %+v\n", f.Link.Stats())
	fmt.Printf("outcome: %v\n", f.Matrix)
	fmt.Printf("duplicate deliveries (MUST be 0): %d\n", f.DupDeliveries())
	fmt.Printf("sender:   %+v\n", f.Sender.Stats())
	fmt.Printf("receiver: %+v (edge %d)\n", f.Receiver.Stats(), f.Receiver.Edge())

	if f.DupDeliveries() > 0 && !*baseline {
		fmt.Fprintln(os.Stderr, "resetsim: SAFETY VIOLATION under the resilient protocol")
		os.Exit(1)
	}
}

// runFailoverSim is the -failover-every mode: the receiver side is an HA
// cluster — a primary gateway whose journal replicates synchronously to a
// standby — and every n delivered packets the primary "crashes": its
// volatile state is lost, the standby performs the epoch-fenced takeover
// (waking every SA from the replicated counters), and the dead node reboots
// into the next standby, so successive failovers alternate nodes and
// exercise failback. The sender keeps transmitting throughout; the run
// reports per-failover replication lag, the post-takeover false-reject
// window, and — the §3 safety claim under failover — that replaying the
// entire history re-delivers nothing.
func runFailoverSim(seed int64, msgs, failEvery uint64, loss float64, k uint64, w int, lanes, sas int, transport string, tele *simTelemetry) error {
	p, err := newSimFlow(seed, loss, k, w, lanes, transport, tele)
	if err != nil {
		return err
	}
	defer p.Close()
	// -sas extras: additional inbound SAs on the cluster node. They carry no
	// traffic here, but they spread counters across the lanes, replicate,
	// and are woken (FETCH + leap + SAVE, each) by every takeover.
	for i := 1; i < sas; i++ {
		km := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
		if _, err := cryptorand.Read(km.AuthKey); err != nil {
			return err
		}
		if _, err := p.B.GW.AddInbound(uint32(0x00C0_0000+i), km); err != nil {
			return err
		}
	}
	if err := p.AddStandby(); err != nil {
		return err
	}
	tele.setRoles(p.A.GW, p.B.GW, p.Standby)

	var (
		failovers     int
		sinceFailover uint64
	)
	rxKey := ipsec.InboundKey(p.keys.SPIInitToResp)
	for i := uint64(0); i < msgs; i++ {
		verdict, err := p.step()
		if err != nil {
			return err
		}
		if verdict.Delivered() {
			sinceFailover++
		}
		if sinceFailover < failEvery {
			continue
		}
		sinceFailover = 0
		failovers++
		tele.countFailover()
		lagRecords := p.Standby.Stats().LagRecords
		lagValues := p.Standby.LagValues()
		edge, _, _ := p.B.Medium.Cell(rxKey).Fetch()
		p.B.GW.ResetAll() // the crash: volatile counters lost, journal survives
		epoch, err := p.Promote()
		if err != nil {
			return err
		}
		wakeEdge, _, _ := p.B.Medium.Cell(rxKey).Fetch()
		fmt.Printf("delivered=%d  failover %d: epoch %d, lag %d records / %d values, rx horizon %d -> %d\n",
			p.delivered, failovers, epoch, lagRecords, lagValues, edge, wakeEdge)

		// The dead node reboots into the next standby (failback roles).
		if err := p.AddStandby(); err != nil {
			return err
		}
		tele.setRoles(nil, p.B.GW, p.Standby)
	}

	fmt.Printf("\nsent=%d delivered=%d lost=%d sacrificed=%d failovers=%d\n",
		msgs, p.delivered, p.lost, p.sacrificed, failovers)
	return p.report("failovers")
}

// runRekeySim is the -rekey-every mode: a journal-backed gateway pair whose
// single tunnel the rekey orchestrator rolls over every rekeyEvery
// delivered packets. loss applies both to data packets and to the rekey
// exchange's messages; resetAt > 0 crashes the receiver gateway
// mid-exchange at the first rollover after that many deliveries.
func runRekeySim(seed int64, msgs, rekeyEvery, resetAt uint64, loss float64, k uint64, w int, lanes int, transport string, tele *simTelemetry) error {
	p, err := newSimFlow(seed, loss, k, w, lanes, transport, tele)
	if err != nil {
		return err
	}
	defer p.Close()
	gwA, gwB := p.A.GW, p.B.GW
	if err := testbed.Install(gwB, gwA, p.keys.SPIRespToInit, p.keys.RespToInit, p.dst, p.src); err != nil {
		return err
	}
	tele.setRoles(gwA, gwB, nil)

	var (
		resetsInjected int
		armReset       bool
		observer       func(rekey.Event)
	)
	if tele != nil {
		observer = rekey.EventObserver(tele.events())
	}
	o, err := rekey.New(rekey.Config{
		A: gwA, B: gwB, Observer: observer,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			ini, err := ike.NewRekeyInitiator(p.ikeCfg("gw-a"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			rsp, err := ike.NewRekeyResponder(p.ikeCfg("gw-b"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			m1, err := ini.Request()
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if armReset {
				armReset = false
				resetsInjected++
				fmt.Printf("delivered=%d  receiver gateway reset mid-exchange\n", p.delivered)
				gwB.ResetAll()
				gwB.WakeAll() //nolint:errcheck // recovery failures surface as exchange errors below
			}
			reqLost := p.rng.Float64() < loss
			respLost := p.rng.Float64() < loss
			if p.Tx != nil {
				// The exchange rides the socket's control lane (non-ESP
				// marker), served concurrently by the responder side.
				return rekeyExchange(p.Tx, p.Rx, ini, rsp, m1, reqLost, respLost)
			}
			if reqLost {
				return ike.ChildKeys{}, errors.New("rekey request lost")
			}
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if respLost {
				return ike.ChildKeys{}, errors.New("rekey response lost")
			}
			if err := ini.HandleResponse(m2); err != nil {
				return ike.ChildKeys{}, err
			}
			return ini.ChildKeys(), nil
		},
	})
	if err != nil {
		return err
	}
	tun, err := o.Track(p.keys.SPIInitToResp, p.keys.SPIRespToInit)
	if err != nil {
		return err
	}

	resetArmed := resetAt > 0
	sinceRekey := uint64(0)
	for i := uint64(0); i < msgs; i++ {
		verdict, err := p.step()
		if err != nil {
			return err
		}
		if verdict == 0 {
			continue // lost on the link
		}
		sinceRekey++
		if resetArmed && p.delivered >= resetAt {
			resetArmed, armReset = false, true
		}
		if sinceRekey >= rekeyEvery {
			sinceRekey = 0
			for attempt := 1; ; attempt++ {
				err := o.Rollover(tun)
				if err == nil {
					ab, ba := tun.SPIs()
					p.RegisterSPI(ab) // new generation rides the same wire
					fmt.Printf("delivered=%d  rolled over to SPIs %#x/%#x (attempt %d)\n",
						p.delivered, ab, ba, attempt)
					break
				}
				if attempt >= 64 {
					return fmt.Errorf("rollover never converged: %w", err)
				}
			}
			if err := o.Poll(); err != nil { // Grace 0: retire the drained generation
				return err
			}
		}
	}

	st := o.Stats()
	fmt.Printf("\nsent=%d delivered=%d lost=%d sacrificed=%d\n", msgs, p.delivered, p.lost, p.sacrificed)
	fmt.Printf("rollovers=%d exchange_failures=%d retired=%d resets_injected=%d\n",
		st.Rollovers, st.ExchangeFailures, st.Retired, resetsInjected)
	fmt.Printf("journal keys: A=%d B=%d (retired generations tombstoned)\n",
		gwA.Journal().Keys(), gwB.Journal().Keys())
	return p.report("rekeys")
}
