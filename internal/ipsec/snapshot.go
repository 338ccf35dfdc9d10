package ipsec

import (
	"bytes"
	"fmt"

	"antireplay/internal/store"
)

// GatewaySnapshot is a gateway's control-plane state: the SA population with
// keys, traffic selectors, rekey lineage, and drain marks — everything a
// standby needs to mirror the gateway, and nothing the journal already
// carries (the counters themselves travel through journal replication, not
// through snapshots). Snapshots are plain data: safe to serialize, diff, or
// hold across a failover.
type GatewaySnapshot struct {
	Outbound []OutboundSnapshot
	Inbound  []InboundSnapshot
}

// OutboundSnapshot describes one outbound SA and its SPD entries.
type OutboundSnapshot struct {
	SPI       uint32
	Keys      KeyMaterial
	Selectors []Selector
	// Generation and PrevSPI record the rekey lineage; Draining marks an SA
	// a rollover has already cut traffic away from.
	Generation uint64
	PrevSPI    uint32
	Draining   bool
}

// InboundSnapshot describes one inbound SA.
type InboundSnapshot struct {
	SPI        uint32
	Keys       KeyMaterial
	Generation uint64
	PrevSPI    uint32
	Draining   bool
}

// copyKeys deep-copies key material so snapshots do not alias live SA state.
func copyKeys(k KeyMaterial) KeyMaterial {
	return KeyMaterial{AuthKey: bytes.Clone(k.AuthKey), EncKey: bytes.Clone(k.EncKey)}
}

// Snapshot exports the gateway's control-plane state for a standby's mirror
// (Adopt on the standby's gateway). The snapshot is consistent per SA but
// not across the population: SAs added or removed concurrently may or may
// not appear, exactly as with SAD.Range. Counters are not included — they
// are the journal's, and reach a standby through journal replication.
func (g *Gateway) Snapshot() GatewaySnapshot {
	g.mu.Lock()
	outs := append([]*OutboundSA(nil), g.outbound...)
	g.mu.Unlock()

	sels := make(map[*OutboundSA][]Selector)
	g.spd.Range(func(sel Selector, sa *OutboundSA) bool {
		sels[sa] = append(sels[sa], sel)
		return true
	})

	var snap GatewaySnapshot
	for _, sa := range outs {
		snap.Outbound = append(snap.Outbound, OutboundSnapshot{
			SPI:        sa.SPI(),
			Keys:       copyKeys(sa.crypto.keys),
			Selectors:  append([]Selector(nil), sels[sa]...),
			Generation: sa.Generation(),
			PrevSPI:    sa.PrevSPI(),
			Draining:   sa.Draining(),
		})
	}
	g.sad.Range(func(sa *InboundSA) bool {
		snap.Inbound = append(snap.Inbound, InboundSnapshot{
			SPI:        sa.SPI(),
			Keys:       copyKeys(sa.crypto.keys),
			Generation: sa.Generation(),
			PrevSPI:    sa.PrevSPI(),
			Draining:   sa.Draining(),
		})
		return true
	})
	return snap
}

// Adopt reconciles the gateway's SA population to snap, building a warm
// standby image: SAs in the snapshot but not yet registered are created in
// the DOWN state (they hold their journal cell claims but neither send nor
// receive — and crucially never wake, so the standby writes nothing into
// cells the replication stream owns); SAs already registered have their
// drain marks updated; SAs no longer in the snapshot are forgotten —
// dropped from the databases and their claims released WITHOUT a journal
// tombstone, because on a follower journal the authoritative tombstone
// arrives through the replication stream and a local one would race it.
//
// Adopt is idempotent: re-adopting the same snapshot is a no-op, and a
// failed adoption (the first error is returned) can simply be retried with
// the next snapshot. It is meant for gateways that are not serving traffic
// — a cluster standby's image — not for live reconfiguration; takeover
// turns the image live with ResetAll-free WakeAll (every adopted SA is
// already down, so waking IS the paper's recovery).
func (g *Gateway) Adopt(snap GatewaySnapshot) error {
	wantOut := make(map[uint32]OutboundSnapshot, len(snap.Outbound))
	for _, ob := range snap.Outbound {
		wantOut[ob.SPI] = ob
	}
	wantIn := make(map[uint32]InboundSnapshot, len(snap.Inbound))
	for _, ib := range snap.Inbound {
		wantIn[ib.SPI] = ib
	}

	// Forget SAs that left the population (rekey retirements on the
	// primary): claims released, no tombstones (see the doc comment).
	g.mu.Lock()
	var dropOut []uint32
	for _, sa := range g.outbound {
		if _, ok := wantOut[sa.SPI()]; !ok {
			dropOut = append(dropOut, sa.SPI())
		}
	}
	g.mu.Unlock()
	for _, spi := range dropOut {
		g.forgetOutbound(spi)
	}
	var dropIn []uint32
	g.sad.Range(func(sa *InboundSA) bool {
		if _, ok := wantIn[sa.SPI()]; !ok {
			dropIn = append(dropIn, sa.SPI())
		}
		return true
	})
	for _, spi := range dropIn {
		g.forgetInbound(spi)
	}

	// Add (or update) the snapshot's SAs, preserving snapshot order so a
	// first-match-wins SPD mirrors the primary's.
	for _, ob := range snap.Outbound {
		if existing := g.findOutbound(ob.SPI); existing != nil {
			if ob.Draining {
				existing.BeginDrain()
			}
			continue
		}
		sa, err := g.buildOutbound(ob.SPI, copyKeys(ob.Keys), true)
		if err != nil {
			return fmt.Errorf("ipsec: adopt outbound %#x: %w", ob.SPI, err)
		}
		sa.setLineage(ob.Generation, ob.PrevSPI)
		if ob.Draining {
			sa.BeginDrain()
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			g.releaseCell(OutboundKey(ob.SPI))
			return fmt.Errorf("ipsec: adopt outbound %#x: %w", ob.SPI, store.ErrClosed)
		}
		g.registerOutboundLocked(sa)
		for _, sel := range ob.Selectors {
			g.spd.Add(sel, sa)
		}
		g.mu.Unlock()
	}
	for _, ib := range snap.Inbound {
		if existing, ok := g.sad.Lookup(ib.SPI); ok {
			if ib.Draining {
				existing.BeginDrain()
			}
			continue
		}
		sa, err := g.buildInbound(ib.SPI, copyKeys(ib.Keys), true)
		if err != nil {
			return fmt.Errorf("ipsec: adopt inbound %#x: %w", ib.SPI, err)
		}
		sa.setLineage(ib.Generation, ib.PrevSPI)
		if ib.Draining {
			sa.BeginDrain()
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			g.releaseCell(InboundKey(ib.SPI))
			return fmt.Errorf("ipsec: adopt inbound %#x: %w", ib.SPI, store.ErrClosed)
		}
		g.sad.Add(sa)
		g.mu.Unlock()
	}
	return nil
}

// forgetOutbound unregisters the outbound SA for spi and releases its
// journal cell claim without tombstoning the cell — the mirror-side removal
// for SAs retired on the primary, whose tombstone arrives through the
// replication stream instead. Reports whether the SA existed.
func (g *Gateway) forgetOutbound(spi uint32) bool {
	g.mu.Lock()
	sa := g.unregisterOutboundLocked(spi)
	if sa == nil {
		g.mu.Unlock()
		return false
	}
	g.spd.Remove(spi)
	g.mu.Unlock()
	sa.BeginDrain()
	sa.Sender().Reset() // stop the endpoint; no further saves can start
	g.releaseCell(OutboundKey(spi))
	return true
}

// forgetInbound is forgetOutbound's inbound counterpart.
func (g *Gateway) forgetInbound(spi uint32) bool {
	sa, ok := g.sad.Lookup(spi)
	if !ok || !g.sad.Delete(spi) {
		return false
	}
	sa.BeginDrain()
	sa.Receiver().Reset()
	g.releaseCell(InboundKey(spi))
	return true
}
