package testbed

// Audit is the exactly-once ledger every topology-level experiment keeps:
// the adversary's wiretap (every wire the sender ever emitted), the set of
// units the receiver has delivered, and the count of second deliveries —
// the replay acceptances whose only passing value is zero. The zero value
// is ready for use. Not safe for concurrent use.
type Audit struct {
	history [][]byte
	seen    map[string]bool
	replays int
}

// Tap records one wire at the wiretap position. The bytes are copied.
func (a *Audit) Tap(w []byte) {
	a.history = append(a.history, append([]byte(nil), w...))
}

// Deliver accounts one delivery at the receiver, keyed by the delivered
// wire. It reports whether this was the first delivery of key; a second
// one is counted as a replay acceptance.
func (a *Audit) Deliver(key []byte) bool {
	if a.seen[string(key)] {
		a.replays++
		return false
	}
	if a.seen == nil {
		a.seen = make(map[string]bool)
	}
	a.seen[string(key)] = true
	return true
}

// Sent returns the number of wires tapped.
func (a *Audit) Sent() int { return len(a.history) }

// Delivered returns the number of distinct units delivered, counting a
// tapped wire that first got through when ReplayAll re-injected it.
func (a *Audit) Delivered() int { return len(a.seen) }

// Replays returns the number of second deliveries seen so far.
func (a *Audit) Replays() int { return a.replays }

// ReplayAll is the adversary's strongest move: it re-injects the whole
// wiretap, oldest first, through inject. Whatever the receiver delivers
// comes back through Deliver, so afterwards Replays counts every wire the
// receiver accepted twice.
func (a *Audit) ReplayAll(inject func(w []byte)) {
	for _, w := range a.history {
		inject(w)
	}
}
