package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"
)

// Health is the /healthz report. OK gates the HTTP status: a healthy
// process answers 200, anything else 503 — so a load balancer or a
// cluster manager can act on the scrape without parsing it. Degraded is the
// middle state between them: the process is serving (HTTP 200 — taking it
// out of rotation would only widen the outage) but some fault domain is
// quarantined and capacity is reduced; the degraded checks carry the detail
// (which lanes, what error).
type Health struct {
	OK       bool          `json:"ok"`
	Degraded bool          `json:"degraded,omitempty"`
	Checks   []HealthCheck `json:"checks,omitempty"`
}

// HealthCheck is one named liveness/consistency probe inside a Health
// report: journal not fenced, replication lag under threshold, standby
// alive, last ack fresh, storage lanes unquarantined.
type HealthCheck struct {
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Degraded bool   `json:"degraded,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Check appends a probe result and folds it into the overall verdict.
func (h *Health) Check(name string, ok bool, detail string) {
	h.Checks = append(h.Checks, HealthCheck{Name: name, OK: ok, Detail: detail})
	if !ok {
		h.OK = false
	}
}

// Degrade appends a degraded (serving, but with reduced capacity) probe
// result: the check is marked not-OK-but-degraded and the report's Degraded
// flag is raised, while the overall OK — and with it the 200 status — is
// left alone.
func (h *Health) Degrade(name, detail string) {
	h.Checks = append(h.Checks, HealthCheck{Name: name, OK: false, Degraded: true, Detail: detail})
	h.Degraded = true
}

// SAInfo is one security association's row in the /saz snapshot: the
// per-SA state an operator needs to spot a stealth attack or a stuck wake
// — where the sequence edge is, how far durability trails it, how full
// the replay window is, and the replay/auth-fail tallies that a low-rate
// attack moves.
type SAInfo struct {
	SPI            uint32 `json:"spi"`
	Dir            string `json:"dir"` // "in" or "out"
	State          string `json:"state"`
	Generation     uint64 `json:"generation,omitempty"`
	Draining       bool   `json:"draining,omitempty"`
	SeqEdge        uint64 `json:"seq_edge"`
	DurableHorizon uint64 `json:"durable_horizon"`
	Window         int    `json:"window,omitempty"`
	Occupancy      int    `json:"window_occupancy,omitempty"`
	Bytes          uint64 `json:"bytes"`
	Packets        uint64 `json:"packets"`
	AuthFails      uint64 `json:"auth_fails,omitempty"`
	Replays        uint64 `json:"replays,omitempty"`
}

// ServerConfig wires the introspection server's data sources. Every field
// is optional: a nil Registry serves an empty exposition, a nil Health
// serves {"ok":true}, a nil SAs serves an empty list. The functional
// fields keep the dependency arrow pointing at this package — the glue
// that knows about gateways and standbys lives with them, not here.
type ServerConfig struct {
	// Registry backs /metrics.
	Registry *Registry
	// Events backs /events.
	Events *Events
	// Health builds the /healthz report on each request.
	Health func() Health
	// SAs builds the /saz per-SA snapshot on each request.
	SAs func() []SAInfo
}

// Server is the HTTP introspection endpoint: /metrics (Prometheus text
// exposition v0.0.4), /healthz, /saz, /events, and /debug/pprof. Start it
// with ListenAndServe (addr ":0" picks a free port, Addr tells which) or
// mount Handler on an existing mux.
type Server struct {
	cfg ServerConfig

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// NewServer returns an unstarted server over the given sources.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg}
}

// ListenAndServe binds addr (host:port; ":0" for an ephemeral port) and
// serves in a background goroutine until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("telemetry: server already started on %s", s.ln.Addr())
	}
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close; nothing to do with it
	return nil
}

// Addr returns the bound address ("" before ListenAndServe), usable as an
// http URL host after a ":0" bind.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.ln, s.srv = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Handler returns the endpoint mux, for mounting on an existing server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/saz", s.handleSAz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.cfg.Registry == nil {
		return
	}
	s.cfg.Registry.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{OK: true}
	if s.cfg.Health != nil {
		h = s.cfg.Health()
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

func (s *Server) handleSAz(w http.ResponseWriter, _ *http.Request) {
	sas := []SAInfo{}
	if s.cfg.SAs != nil {
		if got := s.cfg.SAs(); got != nil {
			sas = got
		}
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, sas)
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.cfg.Events == nil {
		w.Write([]byte("[]\n")) //nolint:errcheck // client gone
		return
	}
	s.cfg.Events.WriteJSON(w) //nolint:errcheck // client gone
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write
}

// Process is the collector of the process-level runtime families —
// goroutines, heap, GC — so every binary that mounts a telemetry server
// gets the basics without touching runtime/metrics.
var Process Collector = CollectorFunc(func(emit Emit) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	emit("goroutines", KindGauge, float64(runtime.NumGoroutine()))
	emit("heap_alloc_bytes", KindGauge, float64(m.HeapAlloc))
	emit("gc_cycles_total", KindCounter, float64(m.NumGC))
})
