// Root benchmarks of the library's contended paths: parallel admission on
// one receiver, parallel journal appends (with and without a lagging
// follower) and parallel seals on one SA. The paper's tables are
// `go run ./cmd/benchtables`; the end-to-end benchmark is bench/run.sh.
package antireplay_test

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"antireplay"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// BenchmarkParallelAdmission drives one receiver from every benchmark
// goroutine, each admitting globally unique increasing numbers (an atomic
// ticket counter), the contention shape of a multi-queue gateway NIC: every
// admission takes the receiver's mutex, checks the strict horizon and
// decides on the Bitmap window, so this is the instrument for what that
// mutex costs under contention. The inline save over Mem keeps the horizon
// 2K = 8192 ahead. Run with -cpu 1,2,4,8.
func BenchmarkParallelAdmission(b *testing.B) {
	var m store.Mem
	r, err := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 1 << 12, W: 1024, Store: &m, StrictHorizon: true})
	if err != nil {
		b.Fatal(err)
	}
	var ticket atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Admit(ticket.Add(1))
		}
	})
}

// BenchmarkJournalAppendParallel drives 64 goroutines of concurrent saves
// (one cell each, the gateway-scale SAVE shape) into one no-fsync journal:
// the commit pipeline's staging + group write under full contention. The
// pre-PR journal paid one write(2) syscall, one allocation, and an O(window)
// tail-buffer shift per record; the pipeline stages into reused slabs and
// writes once per elected batch — 0 allocs/op and >= 3x the throughput.
func BenchmarkJournalAppendParallel(b *testing.B) {
	j, err := store.OpenLanes(filepath.Join(b.TempDir(), "j.log"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	const savers = 64
	cells := make([]*store.Cell, savers)
	for i := range cells {
		cells[i] = j.Cell(ipsec.OutboundKey(uint32(i + 1)))
	}
	per := b.N/savers + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < savers; g++ {
		wg.Add(1)
		go func(c *store.Cell) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := c.Save(uint64(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(cells[g])
	}
	wg.Wait()
}

// BenchmarkSealParallel seals 64-byte payloads (auth+enc) from every
// benchmark goroutine through one outbound SA's zero-allocation append path:
// sequence reservation is atomic under the sender mutex, every goroutine
// shares the SA's one AES-GCM state, and the wire is built into a
// per-goroutine reused buffer — 0 allocs/op in steady state.
func BenchmarkSealParallel(b *testing.B) {
	var m store.Mem
	snd, err := antireplay.NewSender(antireplay.SenderConfig{K: 1 << 40, Store: &m})
	if err != nil {
		b.Fatal(err)
	}
	keys := antireplay.KeyMaterial{
		AuthKey: make([]byte, antireplay.AuthKeySize),
		EncKey:  make([]byte, antireplay.EncKeySize),
	}
	sa, err := antireplay.NewOutboundSA(0x42, keys, snd, true, antireplay.Lifetime{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, 4096)
		for pb.Next() {
			out, err := sa.SealAppend(buf[:0], payload)
			if err != nil {
				b.Error(err)
				return
			}
			buf = out[:0]
		}
	})
}
