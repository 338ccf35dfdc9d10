package seqwin

import (
	"fmt"
	"testing"
)

func benchInOrder(b *testing.B, win Window) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		win.Admit(uint64(i + 1))
	}
}

func benchInWindow(b *testing.B, win Window) {
	b.Helper()
	win.Admit(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate between two in-window offsets: one seen, one unseen
		// region that keeps getting re-marked.
		win.Admit(1<<30 - uint64(i%32))
	}
}

func BenchmarkAdmitInOrder(b *testing.B) {
	for _, w := range []int{64, 1024} {
		b.Run(fmt.Sprintf("bool/w=%d", w), func(b *testing.B) { benchInOrder(b, NewBool(w)) })
		b.Run(fmt.Sprintf("bitmap/w=%d", w), func(b *testing.B) { benchInOrder(b, NewBitmap(w)) })
	}
}

func BenchmarkAdmitInWindow(b *testing.B) {
	b.Run("bool/w=64", func(b *testing.B) { benchInWindow(b, NewBool(64)) })
	b.Run("bitmap/w=64", func(b *testing.B) { benchInWindow(b, NewBitmap(64)) })
}

func BenchmarkAdmitBigSlide(b *testing.B) {
	// Every admit slides by a full window: the worst case for the paper's
	// copy-loop window and the word-clearing bitmap.
	for _, w := range []int{64, 1024} {
		b.Run(fmt.Sprintf("bool/w=%d", w), func(b *testing.B) {
			win := NewBool(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win.Admit(uint64(i+1) * uint64(w))
			}
		})
		b.Run(fmt.Sprintf("bitmap/w=%d", w), func(b *testing.B) {
			win := NewBitmap(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win.Admit(uint64(i+1) * uint64(w))
			}
		})
	}
}

// BenchmarkBitmapReinstall is what a receiver's wake-up pays the window:
// reinstall it in place at the leaped edge with every entry marked received.
func BenchmarkBitmapReinstall(b *testing.B) {
	for _, w := range []int{64, 1024} {
		b.Run(fmt.Sprintf("reinit/w=%d", w), func(b *testing.B) {
			win := NewBitmap(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win.Reinit(uint64(i)*50+8192, true)
			}
		})
	}
}

func BenchmarkInferESN(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += InferESN(uint64(i)<<16, uint32(i*7), 64)
	}
	_ = acc
}
