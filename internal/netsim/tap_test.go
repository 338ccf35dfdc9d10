package netsim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLinkTapRegistrationRace is the -race regression for the missed-tap
// race: Link.Tap used to append to the tap slice with no synchronization
// while Send (on the engine's goroutine) iterated it — the exact shape
// of an adversary attaching its wiretap to a live link from a
// campaign goroutine. Tap and Send must agree on the slice through the
// link's mutex, and a Tap that has returned must be visible to every
// subsequent Send.
func TestLinkTapRegistrationRace(t *testing.T) {
	e := NewEngine(1)
	link := NewLink(e, LinkConfig{Delay: time.Microsecond}, func(int) {})

	stop := make(chan struct{})
	var observed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			select {
			case <-stop:
				return
			default:
			}
			link.Tap(func(int) { observed.Add(1) })
		}
	}()
	for i := 0; i < 512; i++ {
		link.Send(i)
	}
	close(stop)
	wg.Wait()

	// Sequential visibility: a tap registered after traffic stops sees
	// the next Send exactly once.
	var late atomic.Uint64
	link.Tap(func(int) { late.Add(1) })
	link.Send(999)
	if got := late.Load(); got != 1 {
		t.Fatalf("late tap saw %d sends, want 1", got)
	}
}
