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
// The gateway modes render one row of a benchtables scenario instead, with
// its asserted invariants (a violation exits 1): -failover is the failover
// table (crash, epoch-fenced takeover, split-brain failback) and -rekey the
// rekey table (IKE-driven make-before-break rollover with the receiver
// gateway crashed mid-exchange). -loss, -sas (tunnels), -seed, -kq, -w and
// -lanes parameterize the row, -msgs its phase length; -transport=udp runs
// it across real loopback sockets (the rekey exchange on the control lane)
// and -metrics serves its telemetry live:
//
//	resetsim -rekey -loss 0.05 -transport=udp
//	resetsim -failover -sas 2 -msgs 4000 -metrics=:0
//
// With -campaign=<name> it renders one scenario's rows of the campaigns
// table (the stealth-DoS campaigns window_edge, save_storm, rekey_cutover and
// blackout_flood, each at its baseline and hardened defense) or of the
// diskfault table (fsync_storm, enospc_compact, single_lane_eio); -msgs sets
// the phase length:
//
//	resetsim -campaign=window_edge -msgs 600
//	resetsim -campaign=fsync_storm
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"antireplay/internal/experiments"
	"antireplay/internal/netsim"
	"antireplay/internal/testbed"
)

// given reports whether the flag called name was set on the command line.
func given(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runTable is the table modes: render one table, or exit 1 with its error.
func runTable(table func() (*experiments.Table, error)) {
	tbl, err := table()
	if err == nil {
		err = tbl.Render(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
		os.Exit(1)
	}
}

// gatewayTable is the -failover and -rekey modes: the scenario's one row at
// loss over bed, with tunnels SA pairs and, when packets > 0, that many
// rounds a phase.
func gatewayTable(failover bool, seed int64, loss float64, tunnels, packets int, bed testbed.Config) (*experiments.Table, error) {
	if failover {
		cfg := experiments.DefaultFailoverConfig()
		cfg.Seed, cfg.LossProbs, cfg.Tunnels, cfg.Bed = seed, []float64{loss}, tunnels, bed
		if packets > 0 {
			cfg.PacketsPerPhase = packets
		}
		return experiments.Failover(cfg)
	}
	cfg := experiments.DefaultRekeyConfig()
	cfg.Seed, cfg.LossProbs, cfg.Tunnels, cfg.Bed = seed, []float64{loss}, tunnels, bed
	if packets > 0 {
		cfg.PacketsPerPhase = packets
	}
	return experiments.RekeyRollover(cfg)
}

// campaignTable is the -campaign mode: the named scenario's rows of the
// campaigns or diskfault table, with packets a phase when packets > 0.
func campaignTable(seed int64, packets int, name string) (*experiments.Table, error) {
	return experiments.Campaign(experiments.CampaignsConfig{Seed: seed, Packets: packets}, name)
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
		rekey    = flag.Bool("rekey", false, "run the rekey scenario's row (IKE rollover, receiver crashed mid-exchange) and exit")
		failover = flag.Bool("failover", false, "run the failover scenario's row (crash, takeover, split-brain failback) and exit")
		lanesN   = flag.Int("lanes", 1, "journal commit lanes per node in the gateway modes")
		sasN     = flag.Int("sas", 1, "tunnels (SA pairs) between the gateways in the gateway modes")
		trans    = flag.String("transport", "mem", "gateway-mode wire transport: mem (in-process) or udp (real UDP-encapsulated loopback sockets)")
		campaign = flag.String("campaign", "", "run one campaigns or diskfault scenario's rows and exit: window_edge, save_storm, rekey_cutover, blackout_flood, fsync_storm, enospc_compact, or single_lane_eio")
		metrics  = flag.String("metrics", "", "serve /metrics, /healthz, /saz, /events, and pprof on this address in the gateway modes (e.g. :9100; :0 picks a free port)")
	)
	flag.Parse()

	// -msgs retargets a table mode's phase length only when given: the
	// flow mode's default of 10000 would make the suite crawl.
	packets := 0
	if given("msgs") {
		packets = int(*msgs)
	}
	if *campaign != "" {
		runTable(func() (*experiments.Table, error) { return campaignTable(*seed, packets, *campaign) })
		return
	}
	if *rekey && *failover {
		fmt.Fprintln(os.Stderr, "resetsim: -rekey and -failover are separate modes")
		os.Exit(2)
	}
	if *trans != "mem" && *trans != "udp" {
		fmt.Fprintf(os.Stderr, "resetsim: unknown -transport %q (mem or udp)\n", *trans)
		os.Exit(2)
	}
	if (*trans == "udp" || *metrics != "") && !*rekey && !*failover {
		fmt.Fprintln(os.Stderr, "resetsim: -transport=udp and -metrics apply to the gateway modes (-rekey / -failover)")
		os.Exit(2)
	}
	if (*rekey || *failover) && (*sasN < 1 || *kq < 1) {
		fmt.Fprintln(os.Stderr, "resetsim: the gateway modes need -sas >= 1 and -kq >= 1")
		os.Exit(2)
	}
	if *rekey || *failover {
		bed := testbed.Config{K: *kq, W: *w, Lanes: *lanesN, Sync: true}
		if *trans == "udp" {
			bed.Link = testbed.UDP
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
			tele.instrument(&bed)
		}
		runTable(func() (*experiments.Table, error) {
			return gatewayTable(*failover, *seed, *loss, *sasN, packets, bed)
		})
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
