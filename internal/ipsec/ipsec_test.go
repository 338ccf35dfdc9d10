package ipsec

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

func testKeys(enc bool) KeyMaterial {
	k := KeyMaterial{AuthKey: bytes.Repeat([]byte{0xA1}, AuthKeySize)}
	if enc {
		k.EncKey = bytes.Repeat([]byte{0xB2}, EncKeySize)
	}
	return k
}

func newSenderT(t *testing.T, k uint64) (*core.Sender, *store.Mem) {
	t.Helper()
	var m store.Mem
	s, err := core.NewSender(core.SenderConfig{K: k, Store: &m})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	return s, &m
}

func newReceiverT(t *testing.T, k uint64, w int) (*core.Receiver, *store.Mem) {
	t.Helper()
	var m store.Mem
	r, err := core.NewReceiver(core.ReceiverConfig{K: k, Store: &m, W: w})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	return r, &m
}

func newPair(t *testing.T, enc, esn bool) (*OutboundSA, *InboundSA) {
	t.Helper()
	snd, _ := newSenderT(t, 25)
	rcv, _ := newReceiverT(t, 25, 64)
	out, err := NewOutboundSA(0x1001, testKeys(enc), snd, false, Lifetime{}, nil)
	if err != nil {
		t.Fatalf("NewOutboundSA: %v", err)
	}
	in, err := NewInboundSA(0x1001, testKeys(enc), rcv, esn, Lifetime{}, nil)
	if err != nil {
		t.Fatalf("NewInboundSA: %v", err)
	}
	return out, in
}

func TestKeyMaterialValidate(t *testing.T) {
	tests := []struct {
		name string
		k    KeyMaterial
		ok   bool
	}{
		{"auth only", testKeys(false), true},
		{"auth+enc", testKeys(true), true},
		{"short auth", KeyMaterial{AuthKey: make([]byte, 16)}, false},
		{"no auth", KeyMaterial{}, false},
		{"bad enc", KeyMaterial{AuthKey: make([]byte, 32), EncKey: make([]byte, 8)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.k.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.ok && !errors.Is(err, ErrKeySize) {
				t.Errorf("Validate = %v, want ErrKeySize", err)
			}
		})
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, enc := range []bool{false, true} {
		name := "integrity-only"
		if enc {
			name = "encrypted"
		}
		t.Run(name, func(t *testing.T) {
			out, in := newPair(t, enc, false)
			payload := []byte("attack at dawn")
			wire, err := out.Seal(payload)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			if len(wire) != len(payload)+Overhead {
				t.Errorf("wire len = %d, want %d", len(wire), len(payload)+Overhead)
			}
			if enc && bytes.Contains(wire, payload) {
				t.Error("plaintext visible in encrypted packet")
			}
			if !enc && !bytes.Contains(wire, payload) {
				t.Error("integrity-only packet should carry plaintext")
			}
			got, verdict, err := in.Open(wire)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !verdict.Delivered() {
				t.Fatalf("verdict = %v, want delivered", verdict)
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("payload = %q, want %q", got, payload)
			}
		})
	}
}

func TestOpenEmptyPayload(t *testing.T) {
	out, in := newPair(t, true, false)
	wire, err := out.Seal(nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, verdict, err := in.Open(wire)
	if err != nil || !verdict.Delivered() {
		t.Fatalf("Open = %v %v", verdict, err)
	}
	if len(got) != 0 {
		t.Errorf("payload = %q, want empty", got)
	}
}

func TestTamperDetection(t *testing.T) {
	out, in := newPair(t, true, false)
	wire, err := out.Seal([]byte("payload payload payload"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	tests := []struct {
		name string
		at   int
	}{
		{"spi bit", 0},
		{"seq bit", 5},
		{"payload bit", headerLen + 3},
		{"icv bit", len(wire) - 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tampered := make([]byte, len(wire))
			copy(tampered, wire)
			tampered[tt.at] ^= 0x01
			_, _, err := in.Open(tampered)
			if err == nil {
				t.Fatal("Open accepted tampered packet")
			}
			if tt.name == "spi bit" {
				if !errors.Is(err, ErrUnknownSPI) {
					t.Errorf("err = %v, want ErrUnknownSPI", err)
				}
				return
			}
			if !errors.Is(err, ErrAuth) {
				t.Errorf("err = %v, want ErrAuth", err)
			}
		})
	}
	_, _, authFails, _ := in.Counters()
	if authFails != 3 {
		t.Errorf("authFails = %d, want 3", authFails)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	out, _ := newPair(t, true, false)
	rcv, _ := newReceiverT(t, 25, 64)
	otherKeys := KeyMaterial{AuthKey: bytes.Repeat([]byte{0xFF}, AuthKeySize), EncKey: bytes.Repeat([]byte{0xEE}, EncKeySize)}
	in, err := NewInboundSA(0x1001, otherKeys, rcv, false, Lifetime{}, nil)
	if err != nil {
		t.Fatalf("NewInboundSA: %v", err)
	}
	wire, _ := out.Seal([]byte("x"))
	if _, _, err := in.Open(wire); !errors.Is(err, ErrAuth) {
		t.Errorf("Open with wrong key = %v, want ErrAuth", err)
	}
}

func TestReplayRejected(t *testing.T) {
	out, in := newPair(t, true, false)
	wire, _ := out.Seal([]byte("once"))
	if _, v, err := in.Open(wire); err != nil || !v.Delivered() {
		t.Fatalf("first Open = %v %v", v, err)
	}
	_, v, err := in.Open(wire)
	if err != nil {
		t.Fatalf("replay Open err = %v", err)
	}
	if v.Delivered() {
		t.Fatal("SAFETY: replayed packet delivered")
	}
	if v != core.VerdictDuplicate {
		t.Errorf("verdict = %v, want duplicate", v)
	}
	_, _, _, replays := in.Counters()
	if replays != 1 {
		t.Errorf("replays = %d, want 1", replays)
	}
}

func TestShortPacket(t *testing.T) {
	_, in := newPair(t, false, false)
	if _, _, err := in.Open(make([]byte, 5)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("Open(short) = %v, want ErrShortPacket", err)
	}
	if _, err := ParseSPI(nil); !errors.Is(err, ErrShortPacket) {
		t.Errorf("ParseSPI(nil) = %v, want ErrShortPacket", err)
	}
	if _, err := ParseSeqLo(make([]byte, 3)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("ParseSeqLo = %v, want ErrShortPacket", err)
	}
}

func TestESNAcrossSubspaceBoundary(t *testing.T) {
	// Drive both counters near 2^32 via a stored value plus wake leap, then
	// exchange packets across the 32-bit boundary: the inbound SA must
	// reconstruct the high bits and authenticate successfully.
	const k = 25
	base := uint64(1)<<32 - 10

	var sm store.Mem
	if err := sm.Save(base); err != nil {
		t.Fatal(err)
	}
	snd, err := core.NewSender(core.SenderConfig{K: k, Store: &sm})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	snd.Reset()
	snd.Wake() // resumes at base + 2k, just below 2^32

	// Store a slightly older edge on the receiver so its leaped edge lands
	// below the sender's resumed counter (otherwise the first packet, whose
	// seq equals the edge, is sacrificed as the paper predicts).
	var rm store.Mem
	if err := rm.Save(base - k); err != nil {
		t.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: k, Store: &rm, W: 64})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	rcv.Reset()
	rcv.Wake() // edge = base + 2k

	out, err := NewOutboundSA(7, testKeys(true), snd, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInboundSA(7, testKeys(true), rcv, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	delivered := 0
	for i := 0; i < 100; i++ { // crosses 2^32
		wire, err := out.Seal([]byte{byte(i)})
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		payload, v, err := in.Open(wire)
		if err != nil {
			t.Fatalf("Open %d: %v (edge %#x)", i, err, rcv.Edge())
		}
		if v.Delivered() {
			delivered++
			if payload[0] != byte(i) {
				t.Fatalf("payload %d = %d", i, payload[0])
			}
		}
	}
	if delivered != 100 {
		t.Errorf("delivered %d of 100 across ESN boundary", delivered)
	}
	if rcv.Edge() <= 1<<32 {
		t.Errorf("edge %#x did not cross 2^32", rcv.Edge())
	}
}

func TestLifetimeBytes(t *testing.T) {
	snd, _ := newSenderT(t, 25)
	out, err := NewOutboundSA(1, testKeys(false), snd, false, Lifetime{SoftBytes: 40, HardBytes: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.State() != LifetimeOK {
		t.Errorf("State = %v, want ok", out.State())
	}
	if _, err := out.Seal(make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if out.State() != LifetimeSoft {
		t.Errorf("State = %v, want soft after 50 bytes", out.State())
	}
	if _, err := out.Seal(make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if out.State() != LifetimeHard {
		t.Errorf("State = %v, want hard after 100 bytes", out.State())
	}
	if _, err := out.Seal([]byte("x")); !errors.Is(err, ErrHardExpired) {
		t.Errorf("Seal past hard = %v, want ErrHardExpired", err)
	}
}

func TestLifetimeTime(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	snd, _ := newSenderT(t, 25)
	out, err := NewOutboundSA(1, testKeys(false), snd, false, Lifetime{SoftTime: time.Hour, HardTime: 2 * time.Hour}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if out.State() != LifetimeOK {
		t.Errorf("State = %v, want ok", out.State())
	}
	now = 90 * time.Minute
	if out.State() != LifetimeSoft {
		t.Errorf("State = %v, want soft", out.State())
	}
	now = 3 * time.Hour
	if out.State() != LifetimeHard {
		t.Errorf("State = %v, want hard", out.State())
	}
}

func TestLifetimeStateString(t *testing.T) {
	if LifetimeOK.String() != "ok" || LifetimeSoft.String() != "soft" || LifetimeHard.String() != "hard" {
		t.Error("LifetimeState.String mismatch")
	}
}

func TestSADRouting(t *testing.T) {
	out1, in1 := newPair(t, true, false)
	_ = out1
	snd2, _ := newSenderT(t, 25)
	rcv2, _ := newReceiverT(t, 25, 64)
	out2, err := NewOutboundSA(0x2002, testKeys(false), snd2, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := NewInboundSA(0x2002, testKeys(false), rcv2, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	sad := NewSAD()
	sad.Add(in1)
	sad.Add(in2)
	if sad.Len() != 2 {
		t.Fatalf("Len = %d, want 2", sad.Len())
	}

	wire, _ := out2.Seal([]byte("via sad"))
	spi, _ := ParseSPI(wire)
	sa, ok := sad.Lookup(spi)
	if !ok || sa != in2 {
		t.Fatalf("Lookup(%#x) = %v %v, want the second SA", spi, sa, ok)
	}
	payload, v, err := sa.Open(wire)
	if err != nil || !v.Delivered() {
		t.Fatalf("Open via SAD = %v %v", v, err)
	}
	if string(payload) != "via sad" {
		t.Errorf("payload = %q", payload)
	}

	if !sad.Delete(0x2002) {
		t.Error("Delete existing = false")
	}
	if sad.Delete(0x2002) {
		t.Error("Delete missing = true")
	}
	if _, ok := sad.Lookup(spi); ok {
		t.Error("Lookup after delete still finds the SA")
	}
}

func TestSPDFirstMatch(t *testing.T) {
	sndA, _ := newSenderT(t, 25)
	sndB, _ := newSenderT(t, 25)
	saA, err := NewOutboundSA(1, testKeys(false), sndA, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	saB, err := NewOutboundSA(2, testKeys(false), sndB, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	spd := NewSPD()
	spd.Add(Selector{
		Src: netip.MustParsePrefix("10.1.0.0/16"),
		Dst: netip.MustParsePrefix("10.2.0.0/16"),
	}, saA)
	spd.Add(Selector{
		Src: netip.MustParsePrefix("10.0.0.0/8"),
		Dst: netip.MustParsePrefix("10.0.0.0/8"),
	}, saB)
	if spd.Len() != 2 {
		t.Fatalf("Len = %d", spd.Len())
	}

	sa, ok := spd.Lookup(netip.MustParseAddr("10.1.5.5"), netip.MustParseAddr("10.2.9.9"))
	if !ok || sa.SPI() != 1 {
		t.Errorf("Lookup = %v %v, want SPI 1 (first match)", sa, ok)
	}
	sa, ok = spd.Lookup(netip.MustParseAddr("10.9.5.5"), netip.MustParseAddr("10.8.9.9"))
	if !ok || sa.SPI() != 2 {
		t.Errorf("Lookup = %v %v, want SPI 2", sa, ok)
	}
	if _, ok := spd.Lookup(netip.MustParseAddr("192.168.1.1"), netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("Lookup outside policy should fail")
	}

}

func TestInboundSAResetRecoveryEndToEnd(t *testing.T) {
	// The full paper scenario over authenticated packets: receiver resets,
	// wakes with the leap, rejects authentic replays, accepts fresh traffic.
	out, in := newPair(t, true, false)
	var history [][]byte
	for i := 0; i < 60; i++ {
		wire, err := out.Seal([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, wire)
		if _, v, err := in.Open(wire); err != nil || !v.Delivered() {
			t.Fatalf("Open %d = %v %v", i, v, err)
		}
	}

	in.Receiver().Reset()
	in.Receiver().Wake() // sync saver: wake completes immediately

	for i, wire := range history {
		_, v, err := in.Open(wire)
		if err != nil {
			t.Fatalf("replay Open %d: %v", i, err)
		}
		if v.Delivered() {
			t.Fatalf("SAFETY: replayed packet %d delivered after reset", i)
		}
	}

	// Fresh traffic from the (non-reset) sender: its counter (61...) is
	// below the receiver's leaped edge, so the paper predicts a bounded
	// sacrifice of fresh packets, then normal delivery.
	deliveredAgain := 0
	for i := 0; i < 200; i++ {
		wire, err := out.Seal([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, v, err := in.Open(wire); err == nil && v.Delivered() {
			deliveredAgain++
		}
	}
	if deliveredAgain == 0 {
		t.Error("no fresh traffic delivered after receiver recovery")
	}
	// Bound: discarded fresh <= 2Kq = 50.
	if discarded := 200 - deliveredAgain; discarded > 50 {
		t.Errorf("fresh discards after reset = %d, bound 50", discarded)
	}
}

func TestOutboundCounters(t *testing.T) {
	out, _ := newPair(t, false, false)
	if _, err := out.Seal(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	bytes_, packets := out.Counters()
	if packets != 1 || bytes_ != 10+Overhead {
		t.Errorf("Counters = (%d, %d), want (%d, 1)", bytes_, packets, 10+Overhead)
	}
}
