package store

import (
	"strconv"

	"antireplay/internal/telemetry"
)

var (
	_ telemetry.Collector = RecoveryStats{}
	_ telemetry.Collector = (*Lanes)(nil)
	_ telemetry.Collector = (*SaverPool)(nil)
)

// CollectTelemetry emits the recovery scan's outcome. Replay/drop counts
// are monotone over the medium's life (recovery happens once, at open),
// torn_tail is the 0/1 flag a clean shutdown leaves at 0.
func (s RecoveryStats) CollectTelemetry(emit telemetry.Emit) {
	emit("recovery_frames_replayed_total", telemetry.KindCounter, float64(s.FramesReplayed))
	emit("recovery_frames_dropped_total", telemetry.KindCounter, float64(s.FramesDropped))
	torn := 0.0
	if s.TornTail {
		torn = 1
	}
	emit("recovery_torn_tail", telemetry.KindGauge, torn)
}

// CollectTelemetry emits the medium's aggregate families — commit pipeline
// counters, footprint gauges, the fence flag, the recovery scan's outcome —
// plus the per-lane commit counters and quarantine flags under a lane label:
// the per-lane view is what shows one hot lane saturating, or one
// quarantined lane, while the aggregate looks healthy. Scrape-time only:
// each sample takes the lanes' mutexes once.
func (l *Lanes) CollectTelemetry(emit telemetry.Emit) {
	emit("appends_total", telemetry.KindCounter, float64(l.Appends()))
	emit("syncs_total", telemetry.KindCounter, float64(l.Syncs()))
	emit("compactions_total", telemetry.KindCounter, float64(l.Compactions()))
	emit("keys", telemetry.KindGauge, float64(l.Keys()))
	emit("log_size_bytes", telemetry.KindGauge, float64(l.LogSize()))
	fenced := 0.0
	if l.Fenced() != nil {
		fenced = 1
	}
	emit("fenced", telemetry.KindGauge, fenced)
	l.RecoveryStats().CollectTelemetry(emit)
	quarantined := 0
	for i, lane := range l.lanes {
		label := telemetry.Label{Key: "lane", Value: strconv.Itoa(i)}
		emit("lane_appends_total", telemetry.KindCounter, float64(lane.Appends()), label)
		emit("lane_syncs_total", telemetry.KindCounter, float64(lane.Syncs()), label)
		health := 0.0
		if lane.Poisoned() != nil {
			health = 1
			quarantined++
		}
		emit("lane_quarantined", telemetry.KindGauge, health, label)
		emit("lane_enospc_rescues_total", telemetry.KindCounter, float64(lane.Rescues()), label)
		emit("lane_repairs_total", telemetry.KindCounter, float64(lane.Repairs()), label)
	}
	emit("lanes_quarantined", telemetry.KindGauge, float64(quarantined))
}

// CollectTelemetry emits the saver pool's backlog and coalescing: queued
// handle depth, save requests, and persisted writes. requested minus
// persisted (rate over rate, in a dashboard) is the coalescing win — how
// many queued saves were absorbed into a later write instead of paying
// their own store round-trip.
func (p *SaverPool) CollectTelemetry(emit telemetry.Emit) {
	emit("queue_depth", telemetry.KindGauge, float64(p.QueueDepth()))
	emit("saves_requested_total", telemetry.KindCounter, float64(p.SavesRequested()))
	emit("saves_persisted_total", telemetry.KindCounter, float64(p.SavesPersisted()))
	emit("save_retries_total", telemetry.KindCounter, float64(p.SaveRetries()))
	emit("save_give_ups_total", telemetry.KindCounter, float64(p.SaveGiveUps()))
}
