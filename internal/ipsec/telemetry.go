package ipsec

import (
	"antireplay/internal/core"
	"antireplay/internal/telemetry"
)

var _ telemetry.Collector = (*Gateway)(nil)

// CollectTelemetry emits the gateway's population-wide datapath counters:
// seal volume summed over outbound SAs, verify/admission outcomes summed
// over inbound SAs, and the population gauges (per direction, plus how
// many SAs are draining after a rekey cutover and how many are not
// StateUp mid-reset/wake). Sums re-walk the SA population at
// scrape time — the hot paths keep their per-SA sharded tallies and never
// see the scrape.
func (g *Gateway) CollectTelemetry(emit telemetry.Emit) {
	snap := g.snapshot()
	var txBytes, txPackets uint64
	var drainOut, downOut int
	for _, sa := range snap.outbound {
		b, p := sa.Counters()
		txBytes += b
		txPackets += p
		if sa.Draining() {
			drainOut++
		}
		if sa.Sender().State() != core.StateUp {
			downOut++
		}
	}
	var rxBytes, rxPackets, authFails, replays uint64
	var drainIn, downIn int
	for _, sa := range snap.inbound {
		b, p, af, rp := sa.Counters()
		rxBytes += b
		rxPackets += p
		authFails += af
		replays += rp
		if sa.Draining() {
			drainIn++
		}
		if sa.Receiver().State() != core.StateUp {
			downIn++
		}
	}
	out := telemetry.Label{Key: "dir", Value: "out"}
	in := telemetry.Label{Key: "dir", Value: "in"}
	emit("sas", telemetry.KindGauge, float64(len(snap.outbound)), out)
	emit("sas", telemetry.KindGauge, float64(len(snap.inbound)), in)
	emit("sas_draining", telemetry.KindGauge, float64(drainOut), out)
	emit("sas_draining", telemetry.KindGauge, float64(drainIn), in)
	emit("sas_down", telemetry.KindGauge, float64(downOut), out)
	emit("sas_down", telemetry.KindGauge, float64(downIn), in)
	emit("seal_bytes_total", telemetry.KindCounter, float64(txBytes))
	emit("seal_packets_total", telemetry.KindCounter, float64(txPackets))
	emit("verify_bytes_total", telemetry.KindCounter, float64(rxBytes))
	emit("verify_packets_total", telemetry.KindCounter, float64(rxPackets))
	emit("auth_fails_total", telemetry.KindCounter, float64(authFails))
	emit("replay_drops_total", telemetry.KindCounter, float64(replays))
}

// TelemetrySAs returns the per-SA introspection snapshot backing the
// telemetry server's /saz endpoint: one entry per SA with its sequence
// edge, durable horizon (the SAVE watermark a reset would recover to),
// window occupancy, and datapath tallies. Ordering is outbound SAs in
// registration order, then inbound SAs in SAD iteration order.
func (g *Gateway) TelemetrySAs() []telemetry.SAInfo {
	snap := g.snapshot()
	infos := make([]telemetry.SAInfo, 0, len(snap.outbound)+len(snap.inbound))
	for _, sa := range snap.outbound {
		b, p := sa.Counters()
		infos = append(infos, telemetry.SAInfo{
			SPI:            sa.SPI(),
			Dir:            "out",
			State:          sa.Sender().State().String(),
			Generation:     sa.Generation(),
			Draining:       sa.Draining(),
			SeqEdge:        sa.Sender().Seq(),
			DurableHorizon: sa.Sender().LastStored(),
			Bytes:          b,
			Packets:        p,
		})
	}
	for _, sa := range snap.inbound {
		b, p, af, rp := sa.Counters()
		r := sa.Receiver()
		infos = append(infos, telemetry.SAInfo{
			SPI:            sa.SPI(),
			Dir:            "in",
			State:          r.State().String(),
			Generation:     sa.Generation(),
			Draining:       sa.Draining(),
			SeqEdge:        r.Edge(),
			DurableHorizon: r.LastStored(),
			Window:         r.W(),
			Occupancy:      r.Occupancy(),
			Bytes:          b,
			Packets:        p,
			AuthFails:      af,
			Replays:        rp,
		})
	}
	return infos
}

// LifecycleRecorder adapts a telemetry event ring to
// GatewayConfig.OnLifecycle: reset/wake transitions land in the ring under
// layer "gateway" with the SA population as the value. Nil-ring safe.
func LifecycleRecorder(ev *telemetry.Events) func(kind string, sas int) {
	return func(kind string, sas int) {
		ev.Record("gateway", kind, 0, uint64(sas))
	}
}

// LaneFaultRecorder adapts a telemetry event ring to store.LanesOnPoison:
// each lane poisoning lands in the ring as a lane/quarantine event carrying
// the lane index and the fault text. The hook runs under the poisoned
// lane's mutex, which is safe here — the ring's Record never calls back
// into the store. Nil-ring safe.
func LaneFaultRecorder(ev *telemetry.Events) func(lane int, err error) {
	return func(lane int, err error) {
		ev.RecordDetail("lane", "quarantine", 0, uint64(lane), err.Error())
	}
}
