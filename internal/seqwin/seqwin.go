// Package seqwin implements anti-replay sequence-number windows.
//
// Two implementations share one interface, plus ESN inference:
//
//   - Bool: a direct transliteration of the paper's array-of-boolean window
//     (process q, §2), preserving its exact slide semantics, including the
//     invariant that the right-edge cell remains true from initialization.
//     It is the oracle the tests hold Bitmap to.
//   - Bitmap: an RFC 6479-style ring of uint64 words for arbitrary window
//     sizes, clearing whole words as the window advances: the window of the
//     production path, driven under the receiver's mutex.
//   - ESN inference (InferESN): reconstruction of 64-bit extended sequence
//     numbers from the 32-bit wire value, RFC 4303 Appendix A style.
//
// Sequence numbers are uint64 and start at 1; Admit(0) is always
// DecisionStale (the paper's senders never emit 0, and this removes the
// unsigned-underflow edge cases around an empty window).
package seqwin

import "fmt"

// Decision classifies the receiver's verdict for one sequence number.
type Decision uint8

// Decision values. DecisionNew and DecisionInWindow mean "deliver";
// DecisionDuplicate and DecisionStale mean "discard".
const (
	// DecisionNew means the number lies beyond the right edge: deliver and
	// slide the window.
	DecisionNew Decision = iota + 1
	// DecisionInWindow means the number lies inside the window and was not
	// seen before: deliver and mark.
	DecisionInWindow
	// DecisionDuplicate means the number lies inside the window and was
	// already seen: discard.
	DecisionDuplicate
	// DecisionStale means the number lies at or below the left edge, where
	// the receiver can no longer discriminate: discard (paper: "to be on the
	// safe side, q assumes that this message has been received before").
	DecisionStale
)

// Deliver reports whether the decision delivers the message.
func (d Decision) Deliver() bool { return d == DecisionNew || d == DecisionInWindow }

// String returns the lower-case name of the decision.
func (d Decision) String() string {
	switch d {
	case DecisionNew:
		return "new"
	case DecisionInWindow:
		return "in-window"
	case DecisionDuplicate:
		return "duplicate"
	case DecisionStale:
		return "stale"
	default:
		return fmt.Sprintf("decision(%d)", uint8(d))
	}
}

// Window is a mutable anti-replay window over uint64 sequence numbers.
// Implementations are not safe for concurrent use; callers serialize.
type Window interface {
	// Admit decides the verdict for sequence number s and updates the
	// window state accordingly (marks s seen, slides on DecisionNew).
	Admit(s uint64) Decision
	// Edge returns the right edge (largest sequence number represented).
	Edge() uint64
	// W returns the window width in sequence numbers.
	W() int
	// Reinit reinstalls the window at the given right edge. When allSeen is
	// true every number in the window is marked already-received (the
	// paper's post-wake state); otherwise the window is cleared (the
	// baseline's post-reset state).
	Reinit(edge uint64, allSeen bool)
}

// staleBelow reports whether s is at or below the left edge for a window of
// width w ending at edge r, handling unsigned underflow: the stale region is
// s <= r-w, which is empty (except s == 0) while r < w.
func staleBelow(s, r uint64, w int) bool {
	if s == 0 {
		return true
	}
	uw := uint64(w)
	return r >= uw && s <= r-uw
}
