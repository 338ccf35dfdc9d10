package cluster

import (
	"strconv"
	"time"

	"antireplay/internal/telemetry"
)

var (
	_ telemetry.Collector = ReplicationStats{}
	_ telemetry.Collector = (*Standby)(nil)
)

// CollectTelemetry emits a replication-progress snapshot. The up gauge is
// 0 once the stream has died (Err set) — the alerting signal that turns
// the primary's silent degradation to local-only durability loud.
func (r ReplicationStats) CollectTelemetry(emit telemetry.Emit) {
	emit("applied_records_total", telemetry.KindCounter, float64(r.AppliedRecords))
	emit("lag_records", telemetry.KindGauge, float64(r.LagRecords))
	emit("last_ack_age_seconds", telemetry.KindGauge, r.LastAckAge.Seconds())
	emit("source_epoch", telemetry.KindGauge, float64(r.SourceEpoch))
	up := 1.0
	if r.Err != nil {
		up = 0
	}
	emit("up", telemetry.KindGauge, up)
}

// CollectTelemetry emits the standby's live replication state: the
// aggregate snapshot (lag recomputed at scrape) plus the per-lane lag and
// ack-age series that show one wedged lane behind a healthy aggregate.
func (s *Standby) CollectTelemetry(emit telemetry.Emit) {
	s.Stats().CollectTelemetry(emit)
	s.mu.Lock()
	promoted := s.promoted
	localEpoch := s.localEpoch
	s.mu.Unlock()
	emit("local_epoch", telemetry.KindGauge, float64(localEpoch))
	p := 0.0
	if promoted {
		p = 1
	}
	emit("promoted", telemetry.KindGauge, p)
	now := time.Now()
	for _, l := range s.lanes {
		label := telemetry.Label{Key: "lane", Value: strconv.Itoa(l.idx)}
		emit("lane_lag_records", telemetry.KindGauge, float64(l.tl.Lag()), label)
		age := now.Sub(time.Unix(0, l.lastAck.Load()))
		emit("lane_last_ack_age_seconds", telemetry.KindGauge, age.Seconds(), label)
	}
}
