package antireplay

import (
	"fmt"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// Gateway-scale persistence types, re-exported from the implementation.
type (
	// Journal is one commit lane of a Lanes medium (Lanes.LaneJournals):
	// a single append-only log multiplexing many SAs' durable counters,
	// with group-committed fsyncs and crash recovery by replay. It is
	// opened only as part of its medium.
	Journal = store.Journal
	// JournalCell is one key of a Lanes medium viewed as a Store.
	JournalCell = store.Cell
	// SaverPool runs background SAVEs for many stores on bounded workers.
	SaverPool = store.SaverPool
	// PoolSaver is one store's BackgroundSaver handle onto a SaverPool.
	PoolSaver = store.PoolSaver
	// Lanes is the durable multi-counter medium GatewayConfig.Journal and
	// the cluster's Config take: a directory of commit-lane journals under
	// one manifest, routed by a hash of the SPI, committed by the saver
	// pool's workers in parallel, and recovered concurrently.
	// LanesCount(1) is the single-journal form.
	Lanes = store.Lanes
	// LanesOption configures OpenLanes.
	LanesOption = store.LanesOption
	// RecoveryStats reports what open-time replay found: frames replayed,
	// corrupt frames dropped mid-log, and whether a torn tail was cut.
	RecoveryStats = store.RecoveryStats
	// Gateway is a multi-SA IPsec endpoint persisting every SA into one
	// shared Lanes medium through one shared SaverPool.
	Gateway = ipsec.Gateway
	// GatewayConfig configures a Gateway.
	GatewayConfig = ipsec.GatewayConfig
)

// Journal errors.
var (
	// ErrBadKey reports an empty or over-long journal key.
	ErrBadKey = store.ErrBadKey
	// ErrCellClaimed reports a ClaimCell on a key already claimed in this
	// process (a Gateway claims its SAs' cells; see ErrDuplicateSPI).
	ErrCellClaimed = store.ErrCellClaimed
)

// NewLanes opens (or creates) the journal medium rooted at dir: N commit
// lanes, each its own group-committed journal file, fsyncing and recovering
// in parallel; each key's counter recovers as the maximum over its valid
// records and a torn tail is discarded. An existing directory's manifest
// fixes the lane count; LanesCount applies only to a fresh one.
func NewLanes(dir string, opts ...LanesOption) (*Lanes, error) {
	return store.OpenLanes(dir, opts...)
}

// LanesCount sets the lane count for a fresh lane directory (power of two,
// up to 1024; by default one lane per worker of a default SaverPool, 8; 1 is
// the single-journal form).
func LanesCount(n int) LanesOption { return store.LanesCount(n) }

// LanesStrictRecovery refuses (ErrCorrupt) to open a lane whose first bad
// frame is followed by valid records, instead of dropping the damaged
// region; prefer it on storage without its own integrity checking.
func LanesStrictRecovery() LanesOption { return store.LanesStrictRecovery() }

// NewSaverPool starts a pool of background-save workers (<= 0 means
// store.DefaultPoolWorkers).
func NewSaverPool(workers int) *SaverPool { return store.NewSaverPool(workers) }

// NewJournalSender builds a resilient sender whose counter lives in medium
// j under key — NewLanes(dir, LanesCount(1)) is the form for one endpoint or
// a pair. pool may be nil for synchronous saves; with a pool, saves coalesce
// per key and group-commit across keys. The cell is claimed exclusively
// (ErrCellClaimed on a key already owned — release with j.ReleaseCell) and
// the sender is woken and waited for: it is returned up — over a prior
// life's counter at that counter + 2K, never at 1 — or not at all, a failed
// FETCH or post-wake SAVE being the error and the claim released. The strict
// durable horizon is enabled: pool queueing can push a counter more than 2K
// past its durable value, and the horizon turns that reuse window into
// bounded backpressure (Next returns ErrSaveLag until the save lands).
func NewJournalSender(j *Lanes, key string, k uint64, pool *SaverPool) (*Sender, error) {
	cell, err := j.ClaimCell(key)
	if err != nil {
		return nil, fmt.Errorf("antireplay: journal sender %q: %w", key, err)
	}
	cfg := core.SenderConfig{K: k, Store: cell, StrictHorizon: true}
	if pool != nil {
		cfg.Saver = pool.Saver(cell)
	}
	snd, err := core.NewSender(cfg)
	if err == nil {
		err = awaitWake(snd.WakeNotify)
	}
	if err != nil {
		j.ReleaseCell(key)
		return nil, fmt.Errorf("antireplay: journal sender %q: %w", key, err)
	}
	return snd, nil
}

// NewJournalReceiver builds a resilient receiver whose window edge lives in
// medium j under key, with a window of width w. pool may be nil for
// synchronous saves. Cell claiming and the wake work as in
// NewJournalSender — the receiver is returned up, past everything a prior
// life delivered, or an error is — and the strict durable horizon is
// enabled: delivery at or beyond committed+2K is deferred (VerdictHorizon)
// until the lagging save lands.
func NewJournalReceiver(j *Lanes, key string, k uint64, w int, pool *SaverPool) (*Receiver, error) {
	cell, err := j.ClaimCell(key)
	if err != nil {
		return nil, fmt.Errorf("antireplay: journal receiver %q: %w", key, err)
	}
	cfg := core.ReceiverConfig{K: k, W: w, Store: cell, StrictHorizon: true}
	if pool != nil {
		cfg.Saver = pool.Saver(cell)
	}
	rcv, err := core.NewReceiver(cfg)
	if err == nil {
		err = awaitWake(rcv.WakeNotify)
	}
	if err != nil {
		j.ReleaseCell(key)
		return nil, fmt.Errorf("antireplay: journal receiver %q: %w", key, err)
	}
	return rcv, nil
}

// awaitWake starts a wake-up and blocks until it settles.
func awaitWake(wakeNotify func(done func(error))) error {
	settled := make(chan error, 1)
	wakeNotify(func(err error) { settled <- err })
	return <-settled
}

// NewGateway builds a multi-SA gateway over a shared journal and pool; see
// ipsec.GatewayConfig for the knobs.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return ipsec.NewGateway(cfg) }

// InboundKey is the journal key a Gateway uses for an inbound SA.
func InboundKey(spi uint32) string { return ipsec.InboundKey(spi) }
