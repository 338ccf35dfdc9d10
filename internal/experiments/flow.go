package experiments

import (
	"fmt"
	"time"

	"antireplay/internal/adversary"
	"antireplay/internal/core"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
)

// Packet is the simulated wire unit: a sequence number plus the harness's
// ground truth about whether this transmission is the sender's original.
type Packet struct {
	Seq   uint64
	Fresh bool
}

// FlowConfig parameterizes a simulated unidirectional flow p -> q.
type FlowConfig struct {
	// Seed drives all simulation randomness.
	Seed int64
	// Kp and Kq are the SAVE intervals; W the window width.
	Kp, Kq uint64
	W      int
	// LeapFactor overrides the paper's 2 when non-zero (negative disables).
	LeapFactor float64
	// SendInterval is the inter-message gap (paper example: 4µs).
	SendInterval time.Duration
	// SaveDelay is the background SAVE duration (paper example: 100µs).
	SaveDelay time.Duration
	// Link is the impairment model of the channel.
	Link netsim.LinkConfig
	// Baseline selects the §2 protocol on both endpoints.
	Baseline bool
	// SkipPostWakeSave selects the unsafe ablation on both endpoints.
	SkipPostWakeSave bool
	// WakeBuffer caps the receiver's post-wake buffer (0 = default).
	WakeBuffer int
}

// DefaultFlowConfig uses the paper's measured constants: a send every 4µs,
// a 100µs save, K = 25 on both sides, a 64-wide window, and a clean link.
func DefaultFlowConfig(seed int64) FlowConfig {
	return FlowConfig{
		Seed:         seed,
		Kp:           25,
		Kq:           25,
		W:            64,
		SendInterval: 4 * time.Microsecond,
		SaveDelay:    100 * time.Microsecond,
		Link:         netsim.LinkConfig{Delay: 50 * time.Microsecond},
	}
}

// Flow is a running simulated flow with ground-truth accounting.
type Flow struct {
	Engine   *netsim.Engine
	Sender   *core.Sender
	Receiver *core.Receiver
	Link     *netsim.Link[Packet]
	Matrix   *Matrix
	Recorder *adversary.Recorder[Packet]
	Replayer *adversary.Replayer[Packet]

	SenderStore   *store.Mem
	ReceiverStore *store.Mem
	senderSaver   *netsim.SimSaver
	receiverSaver *netsim.SimSaver

	// VerdictHook, when non-nil, observes every final verdict (including
	// drained buffered packets) with the harness's ground truth.
	VerdictHook func(seq uint64, fresh bool, v core.Verdict)

	cfg           FlowConfig
	sendEnabled   bool
	sent          uint64
	lastSent      uint64
	skippedSends  uint64
	observed      uint64
	bufferFresh   []bool // truths of buffered packets, FIFO
	sendHooks     map[uint64]func()
	observeHooks  map[uint64]func()
	deliveredSeqs map[uint64]bool
	dupDelivered  uint64
}

// fate is what became of one packet at the receiver.
type fate uint8

const (
	delivered  fate = iota // passed to the application
	discarded              // rejected: stale, duplicate or beyond the horizon
	unobserved             // never decided: the node was down or its wake buffer full
)

// Matrix tallies each packet's fate against the harness's ground truth
// (fresh transmission, or a replay by the adversary or the network). The
// paper's safety property is that no replay is delivered; FreshDiscarded is
// what a reset sacrifices, which the paper bounds by 2K. Like the rest of
// Flow it is driven from the engine's goroutine only.
type Matrix struct {
	fresh, replay [3]uint64 // indexed by fate
}

func (m *Matrix) add(fresh bool, f fate) {
	if fresh {
		m.fresh[f]++
	} else {
		m.replay[f]++
	}
}

// FreshDelivered returns the count of fresh messages delivered.
func (m *Matrix) FreshDelivered() uint64 { return m.fresh[delivered] }

// FreshDiscarded returns the count of fresh messages wrongly discarded.
func (m *Matrix) FreshDiscarded() uint64 { return m.fresh[discarded] }

// String summarizes the matrix on one line.
func (m *Matrix) String() string {
	return fmt.Sprintf(
		"fresh{delivered:%d discarded:%d unobserved:%d} replay{accepted:%d discarded:%d unobserved:%d}",
		m.fresh[delivered], m.fresh[discarded], m.fresh[unobserved],
		m.replay[delivered], m.replay[discarded], m.replay[unobserved])
}

// NewFlow builds the flow but schedules no traffic; call StartTraffic.
func NewFlow(cfg FlowConfig) (*Flow, error) {
	if cfg.SendInterval <= 0 {
		return nil, fmt.Errorf("experiments: SendInterval must be positive")
	}
	f := &Flow{
		Engine:        netsim.NewEngine(cfg.Seed),
		Matrix:        &Matrix{},
		Recorder:      adversary.NewRecorder[Packet](),
		SenderStore:   &store.Mem{},
		ReceiverStore: &store.Mem{},
		cfg:           cfg,
	}
	f.senderSaver = netsim.NewSimSaver(f.Engine, f.SenderStore, cfg.SaveDelay)
	f.receiverSaver = netsim.NewSimSaver(f.Engine, f.ReceiverStore, cfg.SaveDelay)

	sender, err := core.NewSender(core.SenderConfig{
		K:                        cfg.Kp,
		LeapFactor:               cfg.LeapFactor,
		Store:                    f.SenderStore,
		Saver:                    f.senderSaver,
		Baseline:                 cfg.Baseline,
		AblationSkipPostWakeSave: cfg.SkipPostWakeSave,
	})
	if err != nil {
		return nil, err
	}
	f.Sender = sender

	receiver, err := core.NewReceiver(core.ReceiverConfig{
		K:                        cfg.Kq,
		LeapFactor:               cfg.LeapFactor,
		W:                        cfg.W,
		Store:                    f.ReceiverStore,
		Saver:                    f.receiverSaver,
		Baseline:                 cfg.Baseline,
		AblationSkipPostWakeSave: cfg.SkipPostWakeSave,
		WakeBuffer:               cfg.WakeBuffer,
		Drain: func(seq uint64, v core.Verdict) {
			f.drainVerdict(seq, v)
		},
	})
	if err != nil {
		return nil, err
	}
	f.Receiver = receiver

	f.Link = netsim.NewLink(f.Engine, cfg.Link, f.deliver)
	f.Link.Tap(func(p Packet) {
		// The adversary's wiretap records replay-ready copies.
		f.Recorder.Record(Packet{Seq: p.Seq, Fresh: false})
	})
	f.Replayer = adversary.NewReplayer[Packet](f.Engine, f.Link, f.Recorder)
	f.sendHooks = make(map[uint64]func())
	f.observeHooks = make(map[uint64]func())
	f.deliveredSeqs = make(map[uint64]bool)
	return f, nil
}

// DupDeliveries returns how many deliveries repeated an already-delivered
// sequence number. This is the paper's safety metric (Discrimination /
// anti-replay): it must be zero under the resilient protocol no matter the
// reset and replay schedule.
func (f *Flow) DupDeliveries() uint64 { return f.dupDelivered }

// AtSendCount registers fn to run immediately after the n-th successful
// send (n counts from 1).
func (f *Flow) AtSendCount(n uint64, fn func()) { f.sendHooks[n] = fn }

// AtObserveCount registers fn to run immediately after the receiver has
// observed (decided or buffered) its n-th packet.
func (f *Flow) AtObserveCount(n uint64, fn func()) { f.observeHooks[n] = fn }

// StartTraffic schedules one send every SendInterval from the current
// virtual time until stop. Sends attempted while the sender is down or
// waking are skipped and counted.
func (f *Flow) StartTraffic(stop time.Duration) {
	f.sendEnabled = true
	var tick func()
	tick = func() {
		if !f.sendEnabled || f.Engine.Now() > stop {
			return
		}
		f.sendOne()
		f.Engine.After(f.cfg.SendInterval, tick)
	}
	f.Engine.After(f.cfg.SendInterval, tick)
}

// StopTraffic halts the send loop.
func (f *Flow) StopTraffic() { f.sendEnabled = false }

func (f *Flow) sendOne() {
	seq, err := f.Sender.Next()
	if err != nil {
		f.skippedSends++
		return
	}
	f.sent++
	f.lastSent = seq
	f.Link.Send(Packet{Seq: seq, Fresh: true})
	if fn, ok := f.sendHooks[f.sent]; ok {
		delete(f.sendHooks, f.sent)
		fn()
	}
}

func (f *Flow) deliver(p Packet) {
	v := f.Receiver.Admit(p.Seq)
	switch v {
	case core.VerdictBuffered:
		f.bufferFresh = append(f.bufferFresh, p.Fresh)
		f.noteObserved()
	case core.VerdictDown, core.VerdictOverflow:
		f.Matrix.add(p.Fresh, unobserved)
	default:
		f.recordVerdict(p.Seq, p.Fresh, v)
		f.noteObserved()
	}
}

func (f *Flow) noteObserved() {
	f.observed++
	if fn, ok := f.observeHooks[f.observed]; ok {
		delete(f.observeHooks, f.observed)
		fn()
	}
}

// drainVerdict resolves a buffered packet's truth in FIFO order (the
// receiver drains its buffer in arrival order).
func (f *Flow) drainVerdict(seq uint64, v core.Verdict) {
	fresh := true
	if len(f.bufferFresh) > 0 {
		fresh = f.bufferFresh[0]
		f.bufferFresh = f.bufferFresh[1:]
	}
	f.recordVerdict(seq, fresh, v)
}

func (f *Flow) recordVerdict(seq uint64, fresh bool, v core.Verdict) {
	if f.VerdictHook != nil {
		f.VerdictHook(seq, fresh, v)
	}
	if v.Delivered() {
		if f.deliveredSeqs[seq] {
			f.dupDelivered++
		} else {
			f.deliveredSeqs[seq] = true
		}
		f.Matrix.add(fresh, delivered)
		return
	}
	f.Matrix.add(fresh, discarded)
}

// Run advances virtual time to t.
func (f *Flow) Run(t time.Duration) { f.Engine.RunUntil(t) }

// Sent returns how many messages the sender emitted; LastSent the highest
// sequence number; SkippedSends how many ticks found the sender down.
func (f *Flow) Sent() uint64 { return f.sent }

// LastSent returns the highest sequence number emitted.
func (f *Flow) LastSent() uint64 { return f.lastSent }

// SkippedSends returns how many send ticks found the sender unavailable.
func (f *Flow) SkippedSends() uint64 { return f.skippedSends }
