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
// diskfault table (fsync_storm, enospc_compact, single_lane_eio), in memory;
// -msgs sets the phase length, and a gateway-mode flag next to it exits 2:
//
//	resetsim -campaign=window_edge -msgs 600
//	resetsim -campaign=fsync_storm
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"antireplay/internal/experiments"
	"antireplay/internal/netsim"
	"antireplay/internal/testbed"
)

// options is the command line.
type options struct {
	seed                       int64
	kp, kq                     uint64
	w                          int
	msgs                       uint64
	baseline                   bool
	loss, reorder, dup         float64
	reorderDelay, outage       time.Duration
	resetSender, resetReceiver uint64
	replay                     bool
	leap                       float64
	rekey, failover            bool
	lanes, sas                 int
	transport, campaign        string
	metrics                    string
	given                      map[string]bool // the flags set on the command line
}

// parseFlags reads args; a malformed flag exits 2 with the usage. What the
// flags mean together is validate's to check.
func parseFlags(args []string) *options {
	fs := flag.NewFlagSet("resetsim", flag.ExitOnError)
	o := &options{given: make(map[string]bool)}
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Uint64Var(&o.kp, "kp", 25, "sender SAVE interval Kp")
	fs.Uint64Var(&o.kq, "kq", 25, "receiver SAVE interval Kq")
	fs.IntVar(&o.w, "w", 64, "anti-replay window width")
	fs.Uint64Var(&o.msgs, "msgs", 10000, "messages to send")
	fs.BoolVar(&o.baseline, "baseline", false, "use the §2 baseline (no SAVE/FETCH)")
	fs.Float64Var(&o.loss, "loss", 0, "link loss probability")
	fs.Float64Var(&o.reorder, "reorder", 0, "link reorder probability")
	fs.DurationVar(&o.reorderDelay, "reorder-delay", 200*time.Microsecond, "max reorder hold-back")
	fs.Float64Var(&o.dup, "dup", 0, "link duplication probability")
	fs.Uint64Var(&o.resetSender, "reset-sender", 0, "reset the sender after this many sends (0 = never)")
	fs.Uint64Var(&o.resetReceiver, "reset-receiver", 0, "reset the receiver after observing this many messages (0 = never)")
	fs.DurationVar(&o.outage, "outage", time.Millisecond, "reset outage duration")
	fs.BoolVar(&o.replay, "replay", false, "adversary replays the full history after the receiver wake-up")
	fs.Float64Var(&o.leap, "leap", 0, "leap factor override (0 = paper's 2)")
	fs.BoolVar(&o.rekey, "rekey", false, "run the rekey scenario's row (IKE rollover, receiver crashed mid-exchange) and exit")
	fs.BoolVar(&o.failover, "failover", false, "run the failover scenario's row (crash, takeover, split-brain failback) and exit")
	fs.IntVar(&o.lanes, "lanes", 1, "journal commit lanes per node in the gateway modes")
	fs.IntVar(&o.sas, "sas", 1, "tunnels (SA pairs) between the gateways in the gateway modes")
	fs.StringVar(&o.transport, "transport", "mem", "gateway-mode wire transport: mem (in-process) or udp (real UDP-encapsulated loopback sockets)")
	fs.StringVar(&o.campaign, "campaign", "", "run one campaigns or diskfault scenario's rows and exit: window_edge, save_storm, rekey_cutover, blackout_flood, fsync_storm, enospc_compact, or single_lane_eio")
	fs.StringVar(&o.metrics, "metrics", "", "serve /metrics, /healthz, /saz, /events, and pprof on this address in the gateway modes (e.g. :9100; :0 picks a free port)")
	fs.Parse(args) //nolint:errcheck // ExitOnError: a parse error exits
	fs.Visit(func(f *flag.Flag) { o.given[f.Name] = true })
	return o
}

// validate checks the flags together before any mode runs: a flag that
// belongs to another mode is an error, not ignored.
func (o *options) validate() error {
	gateway := o.rekey || o.failover
	switch {
	case o.campaign != "" && (gateway || o.given["transport"] || o.given["metrics"]):
		return errors.New("-campaign runs in memory on its own: -rekey, -failover, -transport and -metrics do not apply")
	case o.rekey && o.failover:
		return errors.New("-rekey and -failover are separate modes")
	case o.transport != "mem" && o.transport != "udp":
		return fmt.Errorf("unknown -transport %q (mem or udp)", o.transport)
	case (o.transport == "udp" || o.metrics != "") && !gateway:
		return errors.New("-transport=udp and -metrics apply to the gateway modes (-rekey / -failover)")
	case gateway && (o.sas < 1 || o.kq < 1):
		return errors.New("the gateway modes need -sas >= 1 and -kq >= 1")
	}
	return nil
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
// loss over bed, with tunnels SA pairs and packets rounds a phase (the
// tables' 200 when zero).
func gatewayTable(failover bool, seed int64, loss float64, tunnels, packets int, bed testbed.Config) (*experiments.Table, error) {
	if packets == 0 {
		packets = 200
	}
	cfg := experiments.PairConfig{Seed: seed, LossProbs: []float64{loss}, Tunnels: tunnels, PacketsPerPhase: packets, Bed: bed}
	if failover {
		return experiments.Failover(cfg)
	}
	return experiments.RekeyRollover(cfg)
}

// campaignTable is the -campaign mode: the named scenario's rows of the
// campaigns or diskfault table, with packets a phase when packets > 0.
func campaignTable(seed int64, packets int, name string) (*experiments.Table, error) {
	return experiments.Campaign(experiments.CampaignsConfig{Seed: seed, Packets: packets}, name)
}

func main() {
	o := parseFlags(os.Args[1:])
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
		os.Exit(2)
	}

	// -msgs retargets a table mode's phase length only when given: the
	// flow mode's default of 10000 would make the suite crawl.
	packets := 0
	if o.given["msgs"] {
		packets = int(o.msgs)
	}
	if o.campaign != "" {
		runTable(func() (*experiments.Table, error) { return campaignTable(o.seed, packets, o.campaign) })
		return
	}
	if o.rekey || o.failover {
		bed := testbed.Config{K: o.kq, W: o.w, Lanes: o.lanes, Sync: true}
		if o.transport == "udp" {
			bed.Link = testbed.UDP
		}
		var tele *simTelemetry
		if o.metrics != "" {
			var err error
			if tele, err = newSimTelemetry(o.metrics); err != nil {
				fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
				os.Exit(1)
			}
			defer tele.close()
			fmt.Printf("metrics: listening on %s\n", tele.addr())
			tele.instrument(&bed)
		}
		runTable(func() (*experiments.Table, error) {
			return gatewayTable(o.failover, o.seed, o.loss, o.sas, packets, bed)
		})
		tele.dumpEvents()
		return
	}

	cfg := experiments.DefaultFlowConfig(o.seed)
	cfg.Kp, cfg.Kq, cfg.W = o.kp, o.kq, o.w
	cfg.Baseline = o.baseline
	cfg.LeapFactor = o.leap
	cfg.Link = netsim.LinkConfig{
		Delay:        cfg.Link.Delay,
		LossProb:     o.loss,
		DupProb:      o.dup,
		ReorderProb:  o.reorder,
		ReorderDelay: o.reorderDelay,
	}
	if o.reorder == 0 {
		cfg.Link.ReorderDelay = 0
	}

	f, err := experiments.NewFlow(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
		os.Exit(1)
	}

	if o.resetSender > 0 {
		f.AtSendCount(o.resetSender, func() {
			fmt.Printf("t=%v  sender reset (wake in %v)\n", f.Engine.Now(), o.outage)
			f.Sender.Reset()
			f.Engine.After(o.outage, f.Sender.Wake)
		})
	}
	if o.resetReceiver > 0 {
		f.AtObserveCount(o.resetReceiver, func() {
			fmt.Printf("t=%v  receiver reset (wake in %v)\n", f.Engine.Now(), o.outage)
			if o.replay {
				// The replay attack is strongest while the sender is quiet
				// (fresh traffic would slam the window shut ahead of the
				// replays); give the adversary its §3 best case.
				f.StopTraffic()
				fmt.Printf("t=%v  sender goes quiet (adversary's best case)\n", f.Engine.Now())
			}
			f.Receiver.Reset()
			f.Engine.After(o.outage, func() {
				f.Receiver.Wake()
				if o.replay {
					at := f.Engine.Now() + cfg.SaveDelay*2
					n := f.ReplayAllAt(at, cfg.SendInterval)
					fmt.Printf("t=%v  adversary schedules %d replays\n", f.Engine.Now(), n)
				}
			})
		})
	}

	f.AtSendCount(o.msgs, f.StopTraffic)
	f.StartTraffic(time.Hour)
	f.Run(time.Duration(o.msgs)*cfg.SendInterval*4 + o.outage*4 + time.Second)

	fmt.Printf("\nsent=%d skipped_while_down=%d last_seq=%d\n", f.Sent(), f.SkippedSends(), f.LastSent())
	fmt.Printf("link: %+v\n", f.Link.Stats())
	fmt.Printf("outcome: %v\n", f.Matrix)
	fmt.Printf("duplicate deliveries (MUST be 0): %d\n", f.DupDeliveries())
	fmt.Printf("sender:   %+v\n", f.Sender.Stats())
	fmt.Printf("receiver: %+v (edge %d)\n", f.Receiver.Stats(), f.Receiver.Edge())

	if f.DupDeliveries() > 0 && !o.baseline {
		fmt.Fprintln(os.Stderr, "resetsim: SAFETY VIOLATION under the resilient protocol")
		os.Exit(1)
	}
}
