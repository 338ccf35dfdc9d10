package ipsec

import (
	"bytes"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// FuzzOpen throws arbitrary bytes at the inbound path: it must never panic
// and must never deliver anything that was not sealed with the SA's keys.
func FuzzOpen(f *testing.F) {
	var sm, rm store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 1 << 30, Store: &sm})
	if err != nil {
		f.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 1 << 30, Store: &rm, W: 64})
	if err != nil {
		f.Fatal(err)
	}
	keys := KeyMaterial{
		AuthKey: bytes.Repeat([]byte{0x11}, AuthKeySize),
		EncKey:  bytes.Repeat([]byte{0x22}, EncKeySize),
	}
	out, err := NewOutboundSA(0x42, keys, snd, false, Lifetime{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	in, err := NewInboundSA(0x42, keys, rcv, true, Lifetime{}, nil)
	if err != nil {
		f.Fatal(err)
	}

	// Seed with a genuine packet and mutations of it.
	genuine, err := out.Seal([]byte("seed payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte{})
	f.Add(make([]byte, headerLen+icvLen))
	truncated := genuine[:len(genuine)-1]
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, wire []byte) {
		payload, verdict, err := in.Open(wire)
		if err != nil {
			return // rejected: fine
		}
		if verdict.Delivered() && !bytes.Equal(wire, genuine) {
			// Any delivered packet must be byte-identical to one actually
			// sealed (the fuzzer cannot forge the GCM tag); the only sealed
			// packet in this corpus run is `genuine`, and even that one
			// delivers at most once.
			t.Fatalf("forged packet delivered: wire=%x payload=%q", wire, payload)
		}
	})
}

// FuzzParse checks the header parsers never panic on arbitrary input.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, wire []byte) {
		_, _ = ParseSPI(wire)
		_, _ = ParseSeqLo(wire)
	})
}
