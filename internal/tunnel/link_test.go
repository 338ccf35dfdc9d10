package tunnel

import (
	"sync"
	"testing"
)

// TestSetTransportRace is the -race regression for the transport swap: the
// datapath (Send, probe auto-ack) reads the transport while failover logic
// replaces it. Before the atomic.Pointer this was an unsynchronized
// read/write of cfg.Transport.
func TestSetTransportRace(t *testing.T) {
	p, err := New(Config{Name: "race", K: 1 << 20}, 1, testKeys(), 2, testKeys())
	if err != nil {
		t.Fatal(err)
	}
	sink := func([]byte) {}
	p.SetTransport(sink)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				p.SetTransport(sink)
			} else {
				p.SetTransport(func([]byte) {})
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if err := p.Send([]byte("ping")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	close(stop)
	swapper.Wait()
}
