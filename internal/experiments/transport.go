package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"antireplay/internal/netsim"
	"antireplay/internal/wire"
)

// This experiment exercises the wire layer (PR 7): the fragment-scenario
// table shows the reassembler delivering everything a lossy, reordering,
// duplicating link can legally produce while rejecting the hostile
// fragment catalogue (overlap, tiny non-final, inconsistent totals,
// out-of-bounds offsets) with bounded reassembly memory. What the socket
// path costs is bench/'s udp_pipe workload (wire.send_ns, wire.recv_wait_ns).

// TransportConfig parameterizes the wire-layer experiment.
type TransportConfig struct {
	// Seed drives every random draw.
	Seed int64
	// WireMTU is the fragment scenarios' simulated path MTU.
	WireMTU int
	// DatagramBytes sizes the multi-fragment datagrams.
	DatagramBytes int
	// Datagrams is the per-scenario datagram count.
	Datagrams int
	// FloodIDs is how many incomplete reassemblies the memory-bound flood
	// opens (each pinning DatagramBytes until evicted).
	FloodIDs int
	// ReassemblyBytes bounds the reassembler's memory in the flood.
	ReassemblyBytes int
}

// DefaultTransportConfig returns the committed parameterization.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{
		Seed:            7,
		WireMTU:         512,
		DatagramBytes:   4096,
		Datagrams:       200,
		FloodIDs:        512,
		ReassemblyBytes: 1 << 18, // 256 KiB: a quarter of the flood's appetite
	}
}

// fragHarness is one simulated sender→receiver fragment path.
type fragHarness struct {
	engine *netsim.Engine
	sa, sb *wire.SimLink
	fa, fb *wire.FragLink
	got    int
}

func newFragHarness(seed int64, linkCfg netsim.LinkConfig, fragCfg wire.FragConfig) *fragHarness {
	h := &fragHarness{engine: netsim.NewEngine(seed)}
	h.sa, h.sb = wire.NewSimPair(h.engine, linkCfg, netsim.LinkConfig{})
	if fragCfg.Now == nil {
		fragCfg.Now = h.engine.Now
	}
	h.fa = wire.NewFragLink(h.sa, fragCfg)
	h.fb = wire.NewFragLink(h.sb, fragCfg)
	h.fb.OnRecv(func([]byte) { h.got++ })
	return h
}

// espDatagram fabricates an ESP-shaped datagram: leading SPI, then a
// deterministic payload of n-4 bytes.
func espDatagram(spi uint32, n int) []byte {
	p := make([]byte, n)
	binary.BigEndian.PutUint32(p, spi)
	for i := 4; i < n; i++ {
		p[i] = byte(i * 31)
	}
	return p
}

// Transport runs the wire-layer experiment.
func Transport(cfg TransportConfig) (*Table, error) {
	t := &Table{
		ID:    "transport",
		Title: "wire layer: fragment handling",
		Note: "sent datagrams vs delivered through a " +
			fmt.Sprintf("%d-byte path MTU; hostile scenarios MUST deliver 0 and be counted.", cfg.WireMTU),
		Columns: []string{"scenario", "sent", "delivered", "hostile_drops", "other_drops", "detail"},
	}
	if err := fragScenarioRows(t, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

func fragScenarioRows(t *Table, cfg TransportConfig) error {
	mtuCfg := netsim.LinkConfig{MTU: cfg.WireMTU}
	fragCfg := wire.FragConfig{WireMTU: cfg.WireMTU}

	// Clean path: every datagram fragments and reassembles.
	h := newFragHarness(cfg.Seed, mtuCfg, fragCfg)
	for i := 0; i < cfg.Datagrams; i++ {
		if err := h.fa.Send(espDatagram(0x10, cfg.DatagramBytes)); err != nil {
			return err
		}
	}
	h.engine.Run()
	fs := h.fb.FragStats()
	if h.got != cfg.Datagrams || fs.HostileDrops != 0 {
		return fmt.Errorf("transport: clean path delivered %d/%d, hostile %d",
			h.got, cfg.Datagrams, fs.HostileDrops)
	}
	t.AddRow("fragmentation", itoa(cfg.Datagrams), itoa(h.got), "0", "0",
		fmt.Sprintf("%d frames/datagram", fs.FragsRx/uint64(h.got)))

	// Impaired path: the link duplicates and reorders fragments. Duplicate
	// frames are byte-identical retransmissions — idempotent, never
	// condemned as overlap — and reordering is what reassembly is for.
	h = newFragHarness(cfg.Seed+1, netsim.LinkConfig{
		MTU: cfg.WireMTU, DupProb: 0.2,
		ReorderProb: 0.3, ReorderDelay: 40 * time.Microsecond,
		Delay: time.Microsecond,
	}, fragCfg)
	for i := 0; i < cfg.Datagrams; i++ {
		if err := h.fa.Send(espDatagram(0x10, cfg.DatagramBytes)); err != nil {
			return err
		}
	}
	h.engine.Run()
	fs = h.fb.FragStats()
	if h.got != cfg.Datagrams || fs.HostileDrops != 0 {
		return fmt.Errorf("transport: impaired path delivered %d/%d, hostile %d",
			h.got, cfg.Datagrams, fs.HostileDrops)
	}
	t.AddRow("reorder_dup", itoa(cfg.Datagrams), itoa(h.got), "0", "0",
		fmt.Sprintf("dup/reorder survived, %d frames", fs.FragsRx))

	// Hostile scenarios: forged fragment sequences injected beneath the
	// receiver's FragLink. Each MUST deliver nothing and count a hostile
	// drop; the poisoned id stays dead for the frames that follow.
	hostile := []struct {
		name   string
		frames func(id uint32) [][]byte
	}{
		{"overlap_attack", func(id uint32) [][]byte {
			a := bytes.Repeat([]byte{0xAA}, 256)
			b := bytes.Repeat([]byte{0xBB}, 256)
			return [][]byte{
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 0, 768, a),
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 128, 768, b), // rewrites [128,384)
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 512, 768, a),
			}
		}},
		{"tiny_fragment", func(id uint32) [][]byte {
			return [][]byte{
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 0, 2048, bytes.Repeat([]byte{1}, 8)),
			}
		}},
		{"inconsistent_total", func(id uint32) [][]byte {
			a := bytes.Repeat([]byte{2}, 256)
			return [][]byte{
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 0, 1024, a),
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 256, 900, a),
			}
		}},
		{"oob_offset", func(id uint32) [][]byte {
			return [][]byte{
				wire.EncodeFrame(0x10, wire.FragFlagFrag, id, 60000, 1024, bytes.Repeat([]byte{3}, 256)),
			}
		}},
	}
	for _, sc := range hostile {
		h = newFragHarness(cfg.Seed+2, mtuCfg, fragCfg)
		frames := sc.frames(0xBAD)
		for _, f := range frames {
			h.sa.Inject(f)
		}
		h.engine.Run()
		fs = h.fb.FragStats()
		if h.got != 0 || fs.HostileDrops == 0 {
			return fmt.Errorf("transport: %s delivered %d, hostile %d", sc.name, h.got, fs.HostileDrops)
		}
		t.AddRow(sc.name, itoa(len(frames)), "0", u64(fs.HostileDrops), "0", "rejected")
	}

	// Memory-bound flood: many never-completing reassemblies. The pending
	// memory MUST stay under the bound; the overflow is evicted, and a
	// legitimate datagram still gets through afterwards.
	floodCfg := fragCfg
	floodCfg.MaxReassemblyBytes = cfg.ReassemblyBytes
	h = newFragHarness(cfg.Seed+3, mtuCfg, floodCfg)
	first := bytes.Repeat([]byte{4}, cfg.WireMTU/2)
	for id := uint32(0); id < uint32(cfg.FloodIDs); id++ {
		h.sa.Inject(wire.EncodeFrame(0x10, wire.FragFlagFrag, 0x1000+id, 0, uint16Cap(cfg.DatagramBytes), first))
	}
	h.engine.Run()
	fs = h.fb.FragStats()
	if fs.PendingBytes > cfg.ReassemblyBytes {
		return fmt.Errorf("transport: flood pending %d > bound %d", fs.PendingBytes, cfg.ReassemblyBytes)
	}
	if fs.EvictDrops == 0 {
		return fmt.Errorf("transport: flood evicted nothing")
	}
	if err := h.fa.Send(espDatagram(0x10, cfg.DatagramBytes)); err != nil {
		return err
	}
	h.engine.Run()
	if h.got != 1 {
		return fmt.Errorf("transport: post-flood datagram not delivered")
	}
	t.AddRow("memory_flood", itoa(cfg.FloodIDs), "0", "0", u64(fs.EvictDrops),
		fmt.Sprintf("pending %d <= bound %d, flow survives", fs.PendingBytes, cfg.ReassemblyBytes))
	return nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func u64(n uint64) string { return fmt.Sprintf("%d", n) }

func uint16Cap(n int) int {
	if n > 0xFFFF {
		return 0xFFFF
	}
	return n
}
