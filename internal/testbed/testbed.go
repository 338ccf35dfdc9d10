// Package testbed is the one place a gateway topology is built and
// audited. The campaign, disk-fault, failover and rekey tables (which
// resetsim's -campaign, -failover and -rekey modes render) all run one
// shape: a sender gateway A, a receiver gateway B that may crash, an
// optional cluster standby that may be promoted in B's place, a wire the
// adversary may sit on, and an exactly-once audit of what B delivers. The
// fixture owns the temp dir, media, gateways, link, standby hand-overs, the
// backpressure loops under one stall budget, and the Audit.
package testbed

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"antireplay/internal/cluster"
	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
	"antireplay/internal/wire"
)

const (
	// stallBudget bounds how long Seal rides out core.ErrSaveLag and Open
	// core.VerdictHorizon. Both are backpressure from a SAVE in flight,
	// which lands within milliseconds even with fsync and synchronous
	// replication: a stall this long is a wedged save pipeline, reported
	// as an error and never as lost goodput.
	stallBudget = 5 * time.Second
	stallPause  = 10 * time.Microsecond // between two tries
)

// ErrStalled marks an exhausted stall budget in the errors of Seal, Open,
// Send, ReplayAll and Settle, for callers that count the receiver's ordinary
// refusals as loss.
var ErrStalled = errors.New("stall budget exhausted")

// Config holds what the topologies vary.
type Config struct {
	// K is every SA's SAVE interval and W the inbound window width; zero
	// takes the gateway's defaults.
	K uint64
	W int
	// Lanes is every node's commit-lane count (replication runs lane to
	// lane); zero takes one, the single-journal form.
	Lanes int
	// Sync leaves fsync on in every medium.
	Sync bool
	// LaneOpts are extra options on node "b"'s medium only: the
	// fault injector and compaction threshold of the disk-fault campaigns,
	// whose sender and standby stay on clean media.
	LaneOpts []store.LanesOption
	// Lifetime bounds every SA (the rekey topologies' soft limit).
	Lifetime ipsec.Lifetime
	// Link is what carries wires from A to B.
	Link LinkKind

	// OnLifecycle observes every gateway's reset and wake transitions,
	// OnPromote every takeover's wake window (cluster.Config.OnPromote),
	// OnPoison every lane quarantine on any medium, OnStall each backoff
	// pause (sealing reports which loop paused), and OnRoles the pair
	// whenever its roles change — the sender A, the serving primary B and
	// the standby — after New, AddStandby and Promote.
	OnLifecycle func(kind string, sas int)
	OnPromote   func(epoch uint64)
	OnPoison    func(lane int, err error)
	OnStall     func(sealing bool)
	OnRoles     func(p *Pair)
}

// Node is one machine: a named medium under the pair's temp dir and the
// gateway running on it. GW is nil while the node is only a disk — after
// Reopen, and while it follows the primary as the standby.
type Node struct {
	Name   string
	Medium *store.Lanes
	GW     *ipsec.Gateway
}

// Pair is sender A facing receiver B, the cluster's serving node. The
// embedded Audit taps every wire Seal produces and accounts every delivery
// Open sees.
type Pair struct {
	Audit
	A, B *Node
	// C is the cluster's other node once AddStandby made one: the
	// standby's disk until Promote swaps it with B, then the deposed
	// primary (fenced, its gateway still up) until the next AddStandby
	// reboots it as the new standby.
	C *Node
	// Standby is the current cluster standby, nil before AddStandby.
	Standby *cluster.Standby
	// Gate is the A->B gate of a Gated pair.
	Gate *wire.GateLink
	// Tx and Rx are A's and B's socket links of a UDP pair.
	Tx, Rx *wire.UDPLink

	cfg    Config
	dir    string
	ea, eb *wire.UDPEndpoint
	// A Gated pair delivers inline from Gate.Send: arrivals during a
	// takeover wait in held until the promoted node is up, and a stall
	// error raised under the gate waits in err for Send to return it.
	holding bool
	held    [][]byte
	err     error
}

// New builds nodes "a" and "b" with their gateways and the link.
func New(cfg Config) (*Pair, error) {
	dir, err := os.MkdirTemp("", "testbed-*")
	if err != nil {
		return nil, err
	}
	p := &Pair{cfg: cfg, dir: dir}
	if p.A, err = p.boot("a"); err == nil {
		p.B, err = p.boot("b")
	}
	switch {
	case err != nil:
	case cfg.Link == Gated:
		p.Gate = wire.NewGateLink(&InlineLink{Deliver: p.arrive})
	case cfg.Link == UDP:
		err = p.listenUDP()
	}
	if err != nil {
		p.Close()
		return nil, err
	}
	p.rolesChanged()
	return p, nil
}

// rolesChanged reports the current roles to OnRoles, if set.
func (p *Pair) rolesChanged() {
	if p.cfg.OnRoles != nil {
		p.cfg.OnRoles(p)
	}
}

// openMedium opens (or reopens) the medium called name.
func (p *Pair) openMedium(name string) (*store.Lanes, error) {
	lo := []store.LanesOption{store.LanesCount(max(p.cfg.Lanes, 1))}
	if !p.cfg.Sync {
		lo = append(lo, store.LanesWithoutSync())
	}
	if p.cfg.OnPoison != nil {
		lo = append(lo, store.LanesOnPoison(p.cfg.OnPoison))
	}
	if name == "b" {
		lo = append(lo, p.cfg.LaneOpts...)
	}
	return store.OpenLanes(filepath.Join(p.dir, name), lo...)
}

// boot opens a node's medium and starts a gateway on it.
func (p *Pair) boot(name string) (*Node, error) {
	m, err := p.openMedium(name)
	if err != nil {
		return nil, err
	}
	gw, err := ipsec.NewGateway(ipsec.GatewayConfig{
		Journal: m, K: p.cfg.K, W: p.cfg.W,
		Lifetime: p.cfg.Lifetime, OnLifecycle: p.cfg.OnLifecycle,
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	return &Node{Name: name, Medium: m, GW: gw}, nil
}

// Reopen reboots n onto its own disk: the gateway and the medium it ran
// are closed and the medium is opened again by name, so it comes back with
// the lane count its manifest pins and every counter that was committed.
// The node has no gateway until a promotion gives it one.
func (p *Pair) Reopen(n *Node) (err error) {
	if n.GW != nil {
		n.GW.Close()
		n.GW = nil
	}
	if n.Medium != nil {
		if err := n.Medium.Close(); err != nil {
			return err
		}
	}
	n.Medium, err = p.openMedium(n.Name)
	return err
}

// AddStandby attaches a started, mirrored cluster standby to the current
// primary B: on a fresh node "c" the first time, afterwards on the deposed
// node, rebooted (the failback shape: promotions alternate two nodes).
func (p *Pair) AddStandby() error {
	if p.C == nil {
		p.C = &Node{Name: "c"}
	}
	if err := p.Reopen(p.C); err != nil {
		return err
	}
	sb, err := cluster.NewStandby(cluster.Config{
		Source: p.B.Medium, Journal: p.C.Medium, K: p.cfg.K, W: p.cfg.W,
		Lifetime: p.cfg.Lifetime, OnPromote: p.cfg.OnPromote, OnLifecycle: p.cfg.OnLifecycle,
	})
	if err != nil {
		return err
	}
	p.Standby = sb
	if err := sb.Start(); err != nil {
		return err
	}
	if err := sb.Mirror(p.B.GW.Snapshot()); err != nil {
		return err
	}
	p.rolesChanged()
	return nil
}

// Promote runs the standby's epoch-fenced takeover and swaps its node in
// as the audited receiver B; the old primary becomes C, untouched (crash it
// first with GW.ResetAll, or leave it running for a split brain). Wires a
// Gated pair receives during the takeover — a campaign injecting from
// OnPromote — land on the promoted node as it comes up.
func (p *Pair) Promote() (epoch uint64, err error) {
	p.holding = true
	gw, epoch, err := p.Standby.Takeover()
	p.holding = false
	if err != nil {
		return 0, err
	}
	p.C.GW = gw
	p.B, p.C = p.C, p.B
	p.rolesChanged()
	for _, w := range p.held {
		p.arrive(w)
	}
	p.held = nil
	return epoch, p.err
}

// Close stops the standby, closes every gateway and medium, and removes
// the temp dir.
func (p *Pair) Close() {
	if p.Standby != nil {
		p.Standby.Stop()
	}
	for _, e := range []*wire.UDPEndpoint{p.ea, p.eb} {
		if e != nil {
			e.Close()
		}
	}
	for _, n := range []*Node{p.A, p.B, p.C} {
		if n != nil && n.GW != nil {
			n.GW.Close()
		}
		if n != nil && n.Medium != nil {
			n.Medium.Close()
		}
	}
	os.RemoveAll(p.dir)
}

// Install adds one SA from one gateway to another: outbound on from under
// the host route src -> dst, inbound on to.
func Install(from, to *ipsec.Gateway, spi uint32, keys ipsec.KeyMaterial, src, dst netip.Addr) error {
	sel := ipsec.Selector{Src: netip.PrefixFrom(src, 32), Dst: netip.PrefixFrom(dst, 32)}
	if _, err := from.AddOutbound(spi, keys, sel); err != nil {
		return err
	}
	_, err := to.AddInbound(spi, keys)
	return err
}

// pause spends one pause of the stall budget that began at *since (set on
// the first call) and reports false once the budget is gone.
func (p *Pair) pause(since *time.Time, sealing bool) bool {
	if since.IsZero() {
		*since = time.Now()
	} else if time.Since(*since) > stallBudget {
		return false
	}
	if p.cfg.OnStall != nil {
		p.cfg.OnStall(sealing)
	}
	time.Sleep(stallPause)
	return true
}

// SealOn seals payload at n for src -> dst, backing off while the durable
// horizon refuses the send. An exhausted budget is an error wrapping
// core.ErrSaveLag; any other seal error is returned as it came.
func (p *Pair) SealOn(n *Node, src, dst netip.Addr, payload []byte) ([]byte, error) {
	var since time.Time
	for {
		w, err := n.GW.Seal(src, dst, payload)
		if err == nil || !errors.Is(err, core.ErrSaveLag) {
			return w, err
		}
		if !p.pause(&since, true) {
			var spi uint32
			if sa, ok := n.GW.SPD().Lookup(src, dst); ok {
				spi = sa.SPI()
			}
			return nil, fmt.Errorf("testbed: seal on node %s SA %#x: %w after %v: %w",
				n.Name, spi, ErrStalled, stallBudget, err)
		}
	}
}

// Settle waits until no SA on B, inbound or outbound, has a SAVE in
// flight, so a crash that follows lands after every SAVE the traffic
// started: whether that SAVE reached the medium (and a sync standby) is
// part of the scenario, not of the scheduler. An exhausted budget is an
// error wrapping ErrStalled.
func (p *Pair) Settle() error {
	var since time.Time
	for !p.settled() {
		if !p.pause(&since, false) {
			return fmt.Errorf("testbed: settle on node %s: %w after %v", p.B.Name, ErrStalled, stallBudget)
		}
	}
	return nil
}

// settled reports whether every save B's endpoints started has completed.
func (p *Pair) settled() bool {
	idle := true
	p.B.GW.SAD().Range(func(sa *ipsec.InboundSA) bool {
		st := sa.Receiver().Stats()
		idle = st.SavesStarted == st.SavesOK+st.SavesFailed
		return idle
	})
	p.B.GW.SPD().Range(func(_ ipsec.Selector, sa *ipsec.OutboundSA) bool {
		st := sa.Sender().Stats()
		idle = idle && st.SavesStarted == st.SavesOK+st.SavesFailed
		return idle
	})
	return idle
}

// Seal seals payload at A and taps the wire into the audit.
func (p *Pair) Seal(src, dst netip.Addr, payload []byte) ([]byte, error) {
	w, err := p.SealOn(p.A, src, dst, payload)
	if err == nil {
		p.Tap(w)
	}
	return w, err
}

// Open opens one wire at B (see OpenOn) and accounts a delivery in the
// audit.
func (p *Pair) Open(w []byte) ([]byte, core.Verdict, error) {
	payload, v, err := p.OpenOn(p.B, w)
	if err == nil && v.Delivered() {
		p.Deliver(w)
	}
	return payload, v, err
}

// OpenOn opens one wire at n, backing off while the receiver's durable
// horizon discards it. On a lane the medium reports poisoned the stall
// lasts until repair, so VerdictHorizon is returned at once; on a healthy
// lane an exhausted budget is an error. Errors from the gateway itself
// (unknown SPI, failed ICV, node down) are returned as they came, for the
// caller to count or ignore.
func (p *Pair) OpenOn(n *Node, w []byte) ([]byte, core.Verdict, error) {
	var since time.Time
	for {
		payload, v, err := n.GW.Open(w)
		if err != nil || v != core.VerdictHorizon {
			return payload, v, err
		}
		spi, _ := ipsec.ParseSPI(w) // Open parsed it already
		if n.Medium.Cell(ipsec.InboundKey(spi)).Poisoned() != nil {
			return nil, v, nil
		}
		if !p.pause(&since, false) {
			return nil, v, fmt.Errorf("testbed: open on node %s SA %#x: %w after %v: last verdict %v on a healthy lane",
				n.Name, spi, ErrStalled, stallBudget, v)
		}
	}
}

// arrive is the inline end of a Gated pair.
func (p *Pair) arrive(w []byte) {
	if p.holding {
		p.held = append(p.held, w)
		return
	}
	if _, _, err := p.Open(w); errors.Is(err, ErrStalled) && p.err == nil {
		p.err = err
	}
}

// Send carries one wire from A's side to B and opens what arrives,
// returning Open's result. Through a gate one send can deliver nothing,
// or several wires (released hostages, injections): the result is then
// zero, the audit holds the outcome, and only a stall is an error.
func (p *Pair) Send(w []byte) ([]byte, core.Verdict, error) {
	if p.Gate != nil {
		if err := p.Gate.Send(w); err != nil {
			return nil, 0, err
		}
		return nil, 0, p.err
	}
	got, err := p.cross(w)
	if err != nil {
		return nil, 0, err
	}
	return p.Open(got)
}

// ReplayAll re-injects the whole wiretap at B (across the sockets on a UDP
// pair; past the gate on a Gated one, the adversary being the injector).
// The receiver's refusals are the expected outcome; a stall is an error.
func (p *Pair) ReplayAll() error {
	var first error
	p.Audit.ReplayAll(func(w []byte) {
		got, err := p.cross(w)
		if err == nil {
			if _, _, err = p.Open(got); !errors.Is(err, ErrStalled) {
				err = nil
			}
		}
		if first == nil {
			first = err
		}
	})
	return first
}
