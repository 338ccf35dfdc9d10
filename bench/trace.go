package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"antireplay"
)

// A stage is one kind of span. stagePacket is the root span of a traced
// packet, from the start of its seal to the end of its open; every other
// span of that packet is its child and shares its packet id.
const (
	stagePacket = iota
	stageSeal
	stageSend
	stageInflight
	stageRecvWait
	stageOpen
	nStages
)

var stageNames = [nStages]string{
	"packet", "ipsec.seal", "wire.send", "wire.inflight", "wire.recv_wait", "ipsec.open",
}

type span struct {
	pkt        uint64
	stage      uint8
	start, end int64 // ns since the load's epoch
}

// maxSpans bounds the trace's memory (32 B a span); what does not fit is
// counted, not kept.
const maxSpans = 1 << 19

// tracer keeps spans in memory until the run ends. Both load goroutines of
// the UDP path record into it; one packet in sampleEvery does, so the lock
// is taken rarely.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func (t *tracer) span(stage uint8, pkt uint64, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{pkt: pkt, stage: stage, start: start, end: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// durations returns the sorted span durations of one stage, in ns.
func (t *tracer) durations(stage uint8) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.stage == stage {
			d = append(d, float64(s.end-s.start))
		}
	}
	slices.Sort(d)
	return d
}

// write stores the spans as one JSON document: a legend and one row a span.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"sampled_one_in\":%d,\"dropped_spans\":%d,\n", workload, sampleEvery, t.dropped)
	fmt.Fprintf(w, "\"columns\":[\"packet_id\",\"span\",\"parent\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	for i, s := range t.spans {
		parent := `"packet"`
		if s.stage == stagePacket {
			parent = "null"
		}
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%q,%s,%d,%d]%s\n", s.pkt, stageNames[s.stage], parent, s.start, s.end, sep)
	}
	fmt.Fprintf(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp times n calls of fn five times over and returns the median ns a call.
func perOp(n int, fn func(i int)) float64 {
	runs := make([]float64, 5)
	for r := range runs {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		runs[r] = float64(time.Since(start)) / float64(n)
		progress.Add(1)
	}
	slices.Sort(runs)
	return runs[len(runs)/2]
}

// isolated times the layers that cannot be told apart inside SealAppend and
// OpenAppend. Lookups run against the live databases; the sequence, window
// and crypto layers run on probe endpoints of the workload's configuration
// over an in-memory store, so no SAVE latency enters their figures.
func isolated(p *pair, order []int32, n int) (map[string]float64, error) {
	out := make(map[string]float64)
	flowAt := func(i int) *flow { return &p.flows[order[i%len(order)]] }

	var missed int
	out["ipsec.spd_lookup_ns"] = perOp(n, func(i int) {
		f := flowAt(i)
		if _, ok := p.a.gw.SPD().Lookup(f.src, f.dst); !ok {
			missed++
		}
	})
	out["ipsec.sad_lookup_ns"] = perOp(n, func(i int) {
		if _, ok := p.b.gw.SAD().Lookup(flowAt(i).spi); !ok {
			missed++
		}
	})
	if missed > 0 {
		return nil, fmt.Errorf("probe: %d database lookups missed", missed)
	}

	snd, err := probeSender(p.k)
	if err != nil {
		return nil, err
	}
	var refused int
	out["core.next_ns"] = perOp(n, func(int) {
		if _, err := snd.Next(); err != nil {
			refused++
		}
	})
	rcv, err := probeReceiver(p.k)
	if err != nil {
		return nil, err
	}
	out["core.admit_ns"] = perOp(n, func(i int) {
		if !rcv.Admit(uint64(i + 1)).Delivered() {
			refused++
		}
	})
	win := antireplay.NewAtomicWindow(windowW)
	out["seqwin.admit_ns"] = perOp(n, func(i int) {
		if !win.Admit(uint64(i + 1)).Deliver() {
			refused++
		}
	})
	if refused > 0 {
		return nil, fmt.Errorf("probe: %d in-order numbers refused", refused)
	}

	// Packet-size scaling: the same seal and open at 1400 B, each call timed
	// on its own so one buffer serves every packet.
	keys := p.flows[0].keys
	if snd, err = probeSender(p.k); err != nil {
		return nil, err
	}
	if rcv, err = probeReceiver(p.k); err != nil {
		return nil, err
	}
	const probeSPI = 0x7fff0001
	osa, err := antireplay.NewOutboundSA(probeSPI, keys, snd, true, antireplay.Lifetime{}, nil)
	if err != nil {
		return nil, err
	}
	isa, err := antireplay.NewInboundSA(probeSPI, keys, rcv, true, antireplay.Lifetime{}, nil)
	if err != nil {
		return nil, err
	}
	const big = 1400
	nBig := n / 4
	payload := make([]byte, big)
	wire := make([]byte, 0, big+antireplay.ESPOverhead)
	buf := make([]byte, 0, big)
	sealNs, openNs := make([]float64, nBig), make([]float64, nBig)
	for i := 0; i < nBig; i++ {
		t0 := time.Now()
		w, err := osa.SealAppend(wire[:0], payload)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("probe: seal 1400 B: %w", err)
		}
		_, v, err := isa.OpenAppend(buf[:0], w)
		t2 := time.Now()
		if err != nil || !v.Delivered() {
			return nil, fmt.Errorf("probe: open 1400 B: %v %v", v, err)
		}
		sealNs[i], openNs[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1))
	}
	progress.Add(1)
	out["ipsec.seal_ns_1400"] = median(sealNs)
	out["ipsec.open_ns_1400"] = median(openNs)
	return out, nil
}

func probeSender(k uint64) (*antireplay.Sender, error) {
	return antireplay.NewSender(antireplay.SenderConfig{K: k, Store: &antireplay.MemStore{}, StrictHorizon: true})
}

func probeReceiver(k uint64) (*antireplay.Receiver, error) {
	return antireplay.NewReceiver(antireplay.ReceiverConfig{
		K: k, W: windowW, Store: &antireplay.MemStore{}, StrictHorizon: true, Concurrent: true})
}

// saveProbe measures the paper's T_save while traffic runs: a cell the
// harness owns is saved 100 times a second through gateway A's medium and
// pool, and each save is timed from StartSave to its completion callback.
type saveProbe struct {
	mu      sync.Mutex
	lat     []float64 // µs
	skipped int       // ticks at which the previous save was still out
	stop    chan struct{}
	done    chan struct{}
}

const saveProbeKey = "probe/t-save"

func startSaveProbe(e *endpoint) (*saveProbe, error) {
	cell, err := e.lanes.ClaimCell(saveProbeKey)
	if err != nil {
		return nil, fmt.Errorf("save probe: %w", err)
	}
	saver := e.pool.Saver(cell)
	sp := &saveProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sp.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		out := make(chan struct{}, 1) // holds a token while no save is out
		out <- struct{}{}
		for v := uint64(1); ; v++ {
			select {
			case <-sp.stop:
				<-out // wait for the last save before the cell is released
				e.lanes.ReleaseCell(saveProbeKey)
				return
			case <-tick.C:
			}
			select {
			case <-out:
			default:
				sp.mu.Lock()
				sp.skipped++
				sp.mu.Unlock()
				continue
			}
			start := time.Now()
			saver.StartSave(v, func(err error) {
				if err == nil {
					us := float64(time.Since(start)) / 1e3
					sp.mu.Lock()
					sp.lat = append(sp.lat, us)
					sp.mu.Unlock()
				}
				out <- struct{}{}
			})
		}
	}()
	return sp, nil
}

// finish stops the probe and returns its sorted latencies in µs.
func (sp *saveProbe) finish() []float64 {
	close(sp.stop)
	<-sp.done
	slices.Sort(sp.lat)
	return sp.lat
}
