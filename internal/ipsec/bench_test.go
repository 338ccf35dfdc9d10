package ipsec

import (
	"bytes"
	"fmt"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// benchPair builds SAs with a huge K so background saves never trigger
// inside the measurement loop.
func benchPair(b *testing.B, enc bool) (*OutboundSA, *InboundSA) {
	b.Helper()
	var sm, rm store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 1 << 40, Store: &sm})
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 1 << 40, Store: &rm, W: 64})
	if err != nil {
		b.Fatal(err)
	}
	keys := KeyMaterial{AuthKey: bytes.Repeat([]byte{1}, AuthKeySize)}
	if enc {
		keys.EncKey = bytes.Repeat([]byte{2}, EncKeySize)
	}
	out, err := NewOutboundSA(1, keys, snd, false, Lifetime{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	in, err := NewInboundSA(1, keys, rcv, false, Lifetime{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return out, in
}

// BenchmarkSeal measures the paper's T_send (per-message cost) — the
// denominator of the §4 sizing rule.
func BenchmarkSeal(b *testing.B) {
	for _, size := range []int{64, 1000, 1500} {
		for _, enc := range []bool{false, true} {
			mode := "auth"
			if enc {
				mode = "auth+enc"
			}
			b.Run(fmt.Sprintf("%s/%dB", mode, size), func(b *testing.B) {
				out, _ := benchPair(b, enc)
				payload := bytes.Repeat([]byte{0x42}, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := out.Seal(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	for _, size := range []int{64, 1000} {
		b.Run(fmt.Sprintf("auth+enc/%dB", size), func(b *testing.B) {
			out, in := benchPair(b, true)
			payload := bytes.Repeat([]byte{0x42}, size)
			wires := make([][]byte, b.N)
			for i := range wires {
				w, err := out.Seal(payload)
				if err != nil {
					b.Fatal(err)
				}
				wires[i] = w
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, v, err := in.Open(wires[i]); err != nil || !v.Delivered() {
					b.Fatalf("Open: %v %v", v, err)
				}
			}
		})
	}
}

func BenchmarkOpenReplayReject(b *testing.B) {
	out, in := benchPair(b, true)
	wire, err := out.Seal([]byte("payload"))
	if err != nil {
		b.Fatal(err)
	}
	if _, v, err := in.Open(wire); err != nil || !v.Delivered() {
		b.Fatal("first open failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v, _ := in.Open(wire); v.Delivered() {
			b.Fatal("replay delivered")
		}
	}
}
