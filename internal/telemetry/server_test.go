package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T, cfg ServerConfig) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("apn", CollectorFunc(func(emit Emit) { emit("hits_total", KindCounter, 5) }))
	ts := testServer(t, ServerConfig{Registry: r})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "apn_hits_total 5") {
		t.Errorf("metrics body:\n%s", body)
	}
}

func TestServerHealthz(t *testing.T) {
	healthy := Health{OK: true}
	ts := testServer(t, ServerConfig{Health: func() Health { return healthy }})

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok": true`) {
		t.Errorf("healthy: code=%d body=%s", code, body)
	}

	healthy = Health{OK: true}
	healthy.Check("journal_fenced", false, "fenced: promoted away")
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("unhealthy code = %d, want 503", code)
	}
	if !strings.Contains(body, "journal_fenced") || !strings.Contains(body, "promoted away") {
		t.Errorf("unhealthy body = %s", body)
	}
}

func TestServerSAz(t *testing.T) {
	ts := testServer(t, ServerConfig{SAs: func() []SAInfo {
		return []SAInfo{{SPI: 0x1001, Dir: "in", State: "up", SeqEdge: 77, DurableHorizon: 100, Window: 64, Occupancy: 12, Replays: 3}}
	}})
	code, body := get(t, ts.URL+"/saz")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	var sas []SAInfo
	if err := json.Unmarshal([]byte(body), &sas); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(sas) != 1 || sas[0].SeqEdge != 77 || sas[0].Replays != 3 {
		t.Errorf("saz = %+v", sas)
	}
}

func TestServerEventsAndPprof(t *testing.T) {
	ev := NewEvents(16)
	ev.Record("cluster", "promote", 0, 2)
	ts := testServer(t, ServerConfig{Events: ev})

	code, body := get(t, ts.URL+"/events")
	if code != http.StatusOK || !strings.Contains(body, `"promote"`) {
		t.Errorf("events: code=%d body=%s", code, body)
	}
	code, _ = get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("pprof cmdline code = %d", code)
	}
}

func TestServerEmptySources(t *testing.T) {
	ts := testServer(t, ServerConfig{})
	for path, wantCode := range map[string]int{"/metrics": 200, "/healthz": 200, "/saz": 200, "/events": 200} {
		code, _ := get(t, ts.URL+path)
		if code != wantCode {
			t.Errorf("%s code = %d, want %d", path, code, wantCode)
		}
	}
}

func TestServerListenAndServe(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("apn_process", Process)
	s := NewServer(ServerConfig{Registry: r})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}
	if err := s.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Error("double start should fail")
	}
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "apn_process_goroutines") {
		t.Errorf("live scrape: code=%d body=%s", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "" {
		t.Error("Addr should clear after Close")
	}
}
