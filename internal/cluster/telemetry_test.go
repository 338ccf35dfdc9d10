package cluster

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"antireplay/internal/telemetry"
)

// TestStatsLagRecomputedOnScrape is the regression test for the stale-lag
// bug: LagRecords used to be a sum of gauges the apply loops published
// after each batch, so a follower whose loops never ran (dead, wedged, or
// simply not started) reported lag 0 — indistinguishable from healthy —
// while the primary committed records past it. Stats must recompute lag
// from the tails at call time.
func TestStatsLagRecomputedOnScrape(t *testing.T) {
	dir := t.TempDir()
	src := openJournal(t, filepath.Join(dir, "src.log"))
	defer src.Close()
	dst := openJournal(t, filepath.Join(dir, "dst.log"))
	defer dst.Close()

	s, err := NewStandby(Config{Source: src, Journal: dst, K: testK, W: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The dead follower: the sync-follower tail is registered (NewStandby
	// did that), but no replication loop ever runs — Start is never
	// called. The old implementation reported LagRecords 0 here forever.
	saved := make(chan error, 1)
	go func() { saved <- src.Cell("rx/1").Save(42) }()

	// The save appends and commits locally (bumping the stream the lag is
	// measured against) and then blocks on the follower's ack.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().LagRecords == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lag never became visible: Stats is not recomputing from the tails")
		}
		time.Sleep(time.Millisecond)
	}

	age1 := s.Stats().LastAckAge
	if age1 <= 0 {
		t.Fatalf("LastAckAge = %v, want > 0", age1)
	}
	time.Sleep(10 * time.Millisecond)
	if age2 := s.Stats().LastAckAge; age2 <= age1 {
		t.Errorf("LastAckAge did not grow on a dead follower: %v then %v", age1, age2)
	}

	// The collector view carries the same live numbers.
	var sawLag, sawAge bool
	s.CollectTelemetry(func(name string, kind telemetry.Kind, value float64, labels ...telemetry.Label) {
		switch name {
		case "lag_records":
			sawLag = value > 0
		case "last_ack_age_seconds":
			sawAge = value > 0
		}
	})
	if !sawLag || !sawAge {
		t.Errorf("collector: lag>0=%v age>0=%v, want both", sawLag, sawAge)
	}

	// Stop clears the sync-follower registration, releasing the blocked
	// save (degraded to local-only durability — loud, not wedged).
	s.Stop()
	select {
	case err := <-saved:
		if err != nil {
			t.Fatalf("released save: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("save still blocked after Stop")
	}
}

// TestStatsLagDrainsWhenRunning is the healthy-path complement: with the
// loops running, scrape-time lag drains to zero and acks stay fresh.
func TestStatsLagDrainsWhenRunning(t *testing.T) {
	dir := t.TempDir()
	src := openJournal(t, filepath.Join(dir, "src.log"))
	defer src.Close()
	dst := openJournal(t, filepath.Join(dir, "dst.log"))
	defer dst.Close()

	s, err := NewStandby(Config{Source: src, Journal: dst, K: testK, W: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := src.Cell("rx/1").Save(i * 10); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.LagRecords == 0 && st.AppliedRecords > 0 {
			if st.LastAckAge > time.Minute {
				t.Errorf("LastAckAge = %v on a follower that just acked", st.LastAckAge)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationStatsCollector pins the snapshot struct's metric names.
func TestReplicationStatsCollector(t *testing.T) {
	r := telemetry.NewRegistry()
	st := ReplicationStats{AppliedRecords: 5, LagRecords: 3,
		LastAckAge: 1500 * time.Millisecond, SourceEpoch: 2}
	r.RegisterCollector("apn_cluster", st)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"apn_cluster_applied_records_total 5",
		"apn_cluster_lag_records 3",
		"apn_cluster_last_ack_age_seconds 1.5",
		"apn_cluster_source_epoch 2",
		"apn_cluster_up 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := r.Lint(); len(errs) != 0 {
		t.Errorf("lint: %v", errs)
	}
}
