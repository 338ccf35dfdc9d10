package core_test

import (
	"fmt"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// BenchmarkSenderNext measures the per-message sequencing cost at different
// SAVE intervals, including the baseline (no saves). The SAVE itself runs
// synchronously against a Mem store here, so small K shows the worst-case
// in-line cost.
func BenchmarkSenderNext(b *testing.B) {
	for _, k := range []uint64{1, 25, 1 << 20} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var m store.Mem
			s, err := core.NewSender(core.SenderConfig{K: k, Store: &m})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("baseline", func(b *testing.B) {
		s, err := core.NewSender(core.SenderConfig{Baseline: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The receiver benchmarks build strict receivers, as a gateway does; with
// the inline SyncSaver committed keeps pace with the edge, so the horizon
// never discards.
func BenchmarkReceiverAdmitInOrder(b *testing.B) {
	var m store.Mem
	r, err := core.NewReceiver(core.ReceiverConfig{K: 25, Store: &m, W: 64, StrictHorizon: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Admit(uint64(i + 1))
	}
}

func BenchmarkReceiverAdmitReplay(b *testing.B) {
	var m store.Mem
	r, err := core.NewReceiver(core.ReceiverConfig{K: 1 << 40, Store: &m, W: 64, StrictHorizon: true})
	if err != nil {
		b.Fatal(err)
	}
	r.Admit(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Admit(100).Delivered() {
			b.Fatal("replay delivered")
		}
	}
}

// BenchmarkResetWakeCycle measures the full crash-recovery cost on a Mem
// store: Reset + FETCH + leap + synchronous SAVE.
func BenchmarkResetWakeCycle(b *testing.B) {
	var m store.Mem
	s, err := core.NewSender(core.SenderConfig{K: 25, Store: &m})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Wake()
		if s.State() != core.StateUp {
			b.Fatal("not up after wake")
		}
	}
}

// BenchmarkReceiverResetWakeCycle is the receiver's side of the same cycle
// at the gateway's shape (W = 1024): beyond the sender's FETCH + leap + SAVE
// it reinstalls the window in place, every entry marked received, in one
// pass over the ring's words — no allocation of its own.
func BenchmarkReceiverResetWakeCycle(b *testing.B) {
	var m store.Mem
	r, err := core.NewReceiver(core.ReceiverConfig{K: 25, Store: &m, W: 1024, StrictHorizon: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		r.Wake()
		if r.State() != core.StateUp {
			b.Fatal("not up after wake")
		}
	}
}
