package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"antireplay/internal/experiments"
	"antireplay/internal/telemetry"
	"antireplay/internal/testbed"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of the first sample line whose series
// name (with any labels) starts with prefix. Returns ok=false when the
// exposition has no such series.
func metricValue(exposition, prefix string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestGatewayModesRenderRegistryTables pins -failover and -rekey to the
// benchtables scenarios: each mode's table has the registry runner's ID and
// columns, and its one row passed the scenario's asserted invariants.
func TestGatewayModesRenderRegistryTables(t *testing.T) {
	for _, failover := range []bool{true, false} {
		id := map[bool]string{true: "failover", false: "rekey"}[failover]
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("%s: not registered", id)
		}
		want, err := r.Run(true)
		if err != nil {
			t.Fatalf("%s: registry run: %v", id, err)
		}
		got, err := gatewayTable(failover, 1, 0.05, 1, 40, testbed.Config{K: 25, W: 64, Lanes: 2, Sync: true})
		if err != nil {
			t.Fatalf("%s mode: %v", id, err)
		}
		if got.ID != want.ID || !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Errorf("%s mode renders %s %v, registry %s %v", id, got.ID, got.Columns, want.ID, want.Columns)
		}
		if len(got.Rows) != 1 {
			t.Errorf("%s mode: %d rows, want one per -loss", id, len(got.Rows))
		}
	}
}

// TestCampaignModeRendersDiskfaultRow: -campaign takes the diskfault
// table's names too; -campaign=fsync_storm -msgs 30 renders that one row
// with the registry table's columns.
func TestCampaignModeRendersDiskfaultRow(t *testing.T) {
	r, _ := experiments.ByID("diskfault")
	want, err := r.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaignTable(1, 30, "fsync_storm")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "diskfault" || !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Errorf("-campaign=fsync_storm renders %s %v, registry diskfault %v", got.ID, got.Columns, want.Columns)
	}
	if len(got.Rows) != 1 || got.Rows[0][0] != "fsync_storm" {
		t.Errorf("-campaign=fsync_storm rows %v, want the one fsync_storm row", got.Rows)
	}
}

// TestFailoverMetricsScrape is the acceptance test for the telemetry
// layer: the -failover scenario runs with the -metrics stack attached, and
// a scrape taken mid-run — once the failed-over primary has a standby of
// its own — must show the takeover in the numbers (epoch bump, refused
// replays, SA population) while /healthz reports healthy and /events
// carries the reset → promote → wake lifecycle sequence.
func TestFailoverMetricsScrape(t *testing.T) {
	tele, err := newSimTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tele.close()

	bed := testbed.Config{K: 25, W: 64, Lanes: 1, Sync: true}
	tele.instrument(&bed)
	done := make(chan error, 1)
	go func() {
		// Phases long enough that the one after the first failback's
		// standby attaches outlasts many polls.
		_, err := gatewayTable(true, 1, 0, 2, 20000, bed)
		done <- err
	}()
	base := "http://" + tele.addr()

	// Poll until the scrape describes a promoted primary with a standby
	// of its own: the source epoch only reads 1 once that standby follows
	// the node the first takeover promoted.
	var exposition string
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("scenario finished before a mid-run scrape landed (err=%v)", err)
		default:
		}
		_, exposition = httpGet(t, base+"/metrics")
		if e, ok := metricValue(exposition, "apn_cluster_source_epoch"); ok && e >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no failover became visible in /metrics")
		}
		time.Sleep(time.Millisecond)
	}

	// The failover's fingerprint: the cluster epoch advanced, the
	// promoted primary verified traffic and refused the replayed history,
	// and it carries both tunnels' inbound SAs.
	for series, min := range map[string]float64{
		"apn_cluster_source_epoch":              1,
		"apn_gateway_sas{dir=\"in\"}":           2,
		"apn_gateway_verify_packets_total":      1,
		"apn_gateway_replay_drops_total":        1,
		"apn_sender_seal_packets_total":         500,
		"apn_journal_appends_total":             1,
		"apn_cluster_lane_last_ack_age_seconds": 0,
		"apn_sim_horizon_stalls_total":          0,
		"apn_sim_save_lag_retries_total":        0,
		"apn_process_goroutines":                1,
	} {
		v, ok := metricValue(exposition, series)
		if !ok {
			t.Errorf("mid-run scrape missing series %s", series)
			continue
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", series, v, min)
		}
	}

	// /healthz: the stream is live mid-run.
	code, body := httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200: %s", code, body)
	}
	var h telemetry.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz JSON: %v", err)
	}
	if !h.OK || len(h.Checks) == 0 {
		t.Errorf("/healthz = %+v, want ok with checks", h)
	}

	// /saz: one inbound row per tunnel on the current primary, with live
	// edges.
	_, body = httpGet(t, base+"/saz")
	var sas []telemetry.SAInfo
	if err := json.Unmarshal([]byte(body), &sas); err != nil {
		t.Fatalf("/saz JSON: %v", err)
	}
	inbound := 0
	for _, sa := range sas {
		if sa.Dir != "in" {
			continue
		}
		inbound++
		if sa.Packets == 0 || sa.SeqEdge == 0 || sa.Window != 64 {
			t.Errorf("/saz inbound SA = %+v, want traffic, a live edge and window 64", sa)
		}
	}
	if inbound != 2 {
		t.Fatalf("/saz inbound rows = %d, want 2 (of %d)", inbound, len(sas))
	}

	// /events: the blackout window's lifecycle sequence, in order.
	_, body = httpGet(t, base+"/events")
	var evs []telemetry.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events JSON: %v", err)
	}
	order := []string{"gateway/reset", "cluster/promote", "gateway/wake", "gateway/wake-done"}
	next := 0
	for _, e := range evs {
		if next < len(order) && e.Layer+"/"+e.Kind == order[next] {
			next++
		}
	}
	if next != len(order) {
		t.Errorf("/events missing the failover sequence %v (matched %d): %+v", order, next, evs)
	}

	if err := <-done; err != nil {
		t.Fatalf("failover scenario: %v", err)
	}
	// Post-run: the ring is dumpable and still serves after the scenario.
	if tele.ev.Total() < 4 {
		t.Errorf("event ring total = %d, want >= 4", tele.ev.Total())
	}
}
