package ipsec

import "fmt"

// GatewaySnapshot is a gateway's control-plane state: the SA population with
// keys, rekey lineage and drain marks, and the SPD in order — everything a
// standby needs to mirror the gateway, and nothing the journal already
// carries (the counters themselves travel through journal replication, not
// through snapshots). Snapshots are plain data: safe to serialize, diff, or
// hold across a failover.
type GatewaySnapshot struct {
	Outbound []SASnapshot // in registration order
	Inbound  []SASnapshot
	// Policy is the SPD's entries in order (SPD.Range): first match wins
	// (RFC 4301 §4.4.1), so a mirror holds the same list, not the same set.
	Policy []PolicySnapshot
}

// SASnapshot describes one SA, in either direction.
type SASnapshot struct {
	SPI  uint32
	Keys KeyMaterial
	// Generation and PrevSPI record the rekey lineage; Draining marks an SA
	// a rollover has already cut traffic away from.
	Generation uint64
	PrevSPI    uint32
	Draining   bool
}

// PolicySnapshot is one SPD entry: traffic Selector covers seals on the
// outbound SA SPI.
type PolicySnapshot struct {
	Selector Selector
	SPI      uint32
}

// snapshot describes the SA; its keys are a fresh copy.
func (b *saBase) snapshot() SASnapshot {
	return SASnapshot{SPI: b.spi, Keys: b.crypto.keys(), Generation: b.generation,
		PrevSPI: b.prevSPI, Draining: b.Draining()}
}

// Snapshot exports the gateway's control-plane state for a standby's mirror
// (Adopt on the standby's gateway). The registered SAs and the SPD are read
// under one hold of the registry lock, so every policy entry names an SA
// the snapshot lists. Counters are not included — they are the journal's,
// and reach a standby through journal replication.
func (g *Gateway) Snapshot() GatewaySnapshot {
	var snap GatewaySnapshot
	g.mu.Lock()
	live := g.snapshotLocked()
	g.spd.Range(func(sel Selector, sa *OutboundSA) bool {
		snap.Policy = append(snap.Policy, PolicySnapshot{Selector: sel, SPI: sa.spi})
		return true
	})
	g.mu.Unlock()
	for _, sa := range live.outbound {
		snap.Outbound = append(snap.Outbound, sa.snapshot())
	}
	for _, sa := range live.inbound {
		snap.Inbound = append(snap.Inbound, sa.snapshot())
	}
	return snap
}

// Adopt reconciles the gateway's SA population to snap, building a warm
// standby image: SAs in the snapshot but not yet registered are created in
// the DOWN state (they hold their journal cell claims but neither send nor
// receive — and crucially never wake, so the standby writes nothing into
// cells the replication stream owns); SAs already registered take the
// snapshot's drain marks; SAs no longer in the snapshot are forgotten —
// dropped from the databases and their claims released WITHOUT a journal
// tombstone, because on a follower journal the authoritative tombstone
// arrives through the replication stream and a local one would race it.
// Last, the snapshot's Policy replaces the SPD in one publication, so the
// image's first match is the primary's whatever order its SAs were
// registered or rekeyed in; a policy entry naming an SPI the snapshot does
// not list fails with ErrUnknownSPI and leaves the SPD as it was.
//
// Adopt is idempotent: re-adopting the same snapshot is a no-op, and a
// failed adoption (the first error is returned) can simply be retried with
// the next snapshot. It is meant for gateways that are not serving traffic
// — a cluster standby's image — not for live reconfiguration; takeover
// turns the image live with ResetAll-free WakeAll (every adopted SA is
// already down, so waking IS the paper's recovery).
func (g *Gateway) Adopt(snap GatewaySnapshot) error {
	wantOut, wantIn := spiSet(snap.Outbound), spiSet(snap.Inbound)

	// Forget SAs that left the population (rekey retirements on the
	// primary): claims released, no tombstones (see the doc comment).
	live := g.snapshot()
	for _, sa := range live.outbound {
		if !wantOut[sa.spi] {
			g.removeOutbound(sa.spi, false)
		}
	}
	for _, sa := range live.inbound {
		if !wantIn[sa.spi] {
			g.removeInbound(sa.spi, false)
		}
	}

	// Build the snapshot's new SAs down, and take every drain mark as the
	// snapshot has it: a RevertOutbound on the primary returns an SA to
	// service.
	for _, s := range snap.Outbound {
		sa := g.findOutbound(s.SPI)
		if sa == nil {
			var err error
			if sa, err = g.buildOutbound(s.SPI, s.Keys, true); err != nil {
				return fmt.Errorf("ipsec: adopt outbound %#x: %w", s.SPI, err)
			}
			sa.setLineage(s.Generation, s.PrevSPI)
			if err := g.lockRegistry(outboundCell(s.SPI)); err != nil {
				return fmt.Errorf("ipsec: adopt: %w", err)
			}
			g.registerOutboundLocked(sa)
			g.mu.Unlock()
		}
		sa.draining.Store(s.Draining)
	}
	for _, s := range snap.Inbound {
		sa, ok := g.sad.Lookup(s.SPI)
		if !ok {
			var err error
			if sa, err = g.buildInbound(s.SPI, s.Keys, true); err != nil {
				return fmt.Errorf("ipsec: adopt inbound %#x: %w", s.SPI, err)
			}
			sa.setLineage(s.Generation, s.PrevSPI)
			if err := g.lockRegistry(inboundCell(s.SPI)); err != nil {
				return fmt.Errorf("ipsec: adopt: %w", err)
			}
			g.sad.Add(sa)
			g.mu.Unlock()
		}
		sa.draining.Store(s.Draining)
	}

	// Publish the policy whole, in the snapshot's order.
	g.mu.Lock()
	defer g.mu.Unlock()
	entries := make([]spdEntry, len(snap.Policy))
	for i, p := range snap.Policy {
		sa := g.outSPI[p.SPI]
		if sa == nil {
			return fmt.Errorf("ipsec: adopt policy %d: %w: outbound %#x", i, ErrUnknownSPI, p.SPI)
		}
		entries[i] = spdEntry{sel: p.Selector, sa: sa}
	}
	g.spd.set(entries)
	return nil
}

// spiSet returns the SPIs of sas.
func spiSet(sas []SASnapshot) map[uint32]bool {
	set := make(map[uint32]bool, len(sas))
	for _, s := range sas {
		set[s.SPI] = true
	}
	return set
}
