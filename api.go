package antireplay

import (
	"time"

	"antireplay/internal/core"
	"antireplay/internal/seqwin"
)

// Core protocol types, re-exported from the implementation.
type (
	// Sender is the reset-resilient sequence-number source (process p).
	Sender = core.Sender
	// SenderConfig configures a Sender.
	SenderConfig = core.SenderConfig
	// SenderStats snapshots sender counters.
	SenderStats = core.SenderStats
	// Receiver is the reset-resilient anti-replay window (process q).
	Receiver = core.Receiver
	// ReceiverConfig configures a Receiver.
	ReceiverConfig = core.ReceiverConfig
	// ReceiverStats snapshots receiver counters.
	ReceiverStats = core.ReceiverStats
	// Verdict is the receiver's decision for one message.
	Verdict = core.Verdict
	// State is an endpoint's lifecycle state (up / down / waking).
	State = core.State
	// BackgroundSaver executes asynchronous SAVEs.
	BackgroundSaver = core.BackgroundSaver
	// Window is the anti-replay window abstraction.
	Window = seqwin.Window
	// WindowDecision is a window's verdict for a sequence number.
	WindowDecision = seqwin.Decision
)

// Verdict values.
const (
	VerdictNew       = core.VerdictNew
	VerdictInWindow  = core.VerdictInWindow
	VerdictDuplicate = core.VerdictDuplicate
	VerdictStale     = core.VerdictStale
	VerdictBuffered  = core.VerdictBuffered
	VerdictOverflow  = core.VerdictOverflow
	VerdictDown      = core.VerdictDown
	VerdictHorizon   = core.VerdictHorizon
)

// Endpoint states.
const (
	StateUp     = core.StateUp
	StateDown   = core.StateDown
	StateWaking = core.StateWaking
)

// DefaultLeapFactor is the paper's leap multiplier (leap = 2K).
const DefaultLeapFactor = core.DefaultLeapFactor

// Protocol errors.
var (
	// ErrDown reports an operation on a reset endpoint.
	ErrDown = core.ErrDown
	// ErrWaking reports a send during the post-wake SAVE.
	ErrWaking = core.ErrWaking
	// ErrNoSavedState reports a FETCH that found nothing.
	ErrNoSavedState = core.ErrNoSavedState
	// ErrSaveLag reports a send refused at the strict durable horizon while
	// a background save catches up; back off and retry.
	ErrSaveLag = core.ErrSaveLag
	// ErrConfig reports an invalid configuration.
	ErrConfig = core.ErrConfig
)

// NewSender validates cfg and returns a sender: up over an empty store,
// born down (Next returns ErrDown) over one a prior life used. Call Wake
// after it either way; it is a no-op on a sender that is up.
func NewSender(cfg SenderConfig) (*Sender, error) { return core.NewSender(cfg) }

// NewReceiver validates cfg and returns a receiver: up over an empty store,
// born down (every Admit is VerdictDown) over one a prior life used. Call
// Wake after it either way; it is a no-op on a receiver that is up.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) { return core.NewReceiver(cfg) }

// Leap computes the wake-up leap ceil(factor*k); the paper proves factor 2
// is both sufficient and necessary.
func Leap(k uint64, factor float64) uint64 { return core.Leap(k, factor) }

// SizeK applies the paper's §4 sizing rule K = ceil(tSave/tSend): the SAVE
// interval must cover the messages that can flow during one SAVE, or the
// durable counter can lag by more than the 2K leap. Size K from the
// measured save latency of your Store and your peak message rate.
func SizeK(tSave, tSend time.Duration) uint64 { return core.SizeK(tSave, tSend) }

// NewAtomicWindow returns an anti-replay window of width w for use on its
// own: the RFC 6479 ring (seqwin.Bitmap) a Receiver builds itself when
// ReceiverConfig.Window is nil. Despite the name it is not safe for
// concurrent use — like every Window, callers serialize; a Receiver drives
// its window under its mutex.
func NewAtomicWindow(w int) Window { return seqwin.NewBitmap(w) }
