// Package antireplay is a reset-resilient anti-replay sequence-number
// service for IPsec-style protocols, implementing Huang, Gouda and
// Elnozahy, "Convergence of IPsec in Presence of Resets" (ICDCS 2003 /
// Journal of High Speed Networks 15(2), 2006).
//
// # The problem
//
// IPsec's anti-replay service numbers every packet of a security
// association and slides a window of recently seen numbers at the receiver.
// Both counters live in volatile memory: if either peer crashes and
// reboots ("resets"), the state is gone, and the standard's remedy is to
// tear down and renegotiate the whole SA with IKE. Without that remedy the
// protocol fails unboundedly: a reset receiver accepts every replayed
// packet, and a reset sender has all its fresh packets discarded.
//
// # The protocol
//
// The paper adds two operations. SAVE persists the counter to stable
// storage in the background once every K messages; FETCH reloads it at
// boot. A wake-up adds a leap of 2K to the fetched value — covering the at
// most 2K numbers that a save-in-flight can be behind — synchronously
// SAVEs the leaped value, and only then resumes. The guarantees (§5):
//
//   - a sender reset wastes at most 2·Kp sequence numbers and causes no
//     fresh discards (absent reordering across the reset);
//   - a receiver reset sacrifices at most 2·Kq fresh messages;
//   - no replayed message is ever accepted, in any reset/replay schedule.
//
// # Using the package
//
// A Sender hands out sequence numbers; a Receiver admits them through an
// anti-replay window. Both take a Store (persistent cell) and optionally a
// BackgroundSaver. The durable form is a cell of a journal medium, saved in
// the background on a SaverPool — one directory, one pool, any number of
// endpoints; close the pool, then the medium, when done:
//
//	journal, err := antireplay.NewLanes("/var/lib/sa", antireplay.LanesCount(1))
//	pool := antireplay.NewSaverPool(1)
//	snd, err := antireplay.NewJournalSender(journal, "tx", 25, pool)
//	...
//	seq, err := snd.Next()          // number an outgoing packet
//	...
//	pool.Close()                    // wait for in-flight saves
//	journal.Close()
//
// A restart is the same calls again. An endpoint built over a store that
// already holds a value is born down — Next returns ErrDown, every Admit is
// VerdictDown — and only Wake (FETCH + leap + SAVE) brings it up, so nothing
// can come up at its initial counter over a prior life's state.
// NewJournalSender and NewJournalReceiver call Wake and wait for it: they
// return an endpoint that is up, or the wake's error. After NewSender or
// NewReceiver over your own store, call Wake yourself (a no-op over an empty
// store). Reset and Wake also drive the crash of a live endpoint.
//
// The ipsec-flavoured types (OutboundSA, InboundSA, SAD, SPD) bind the
// sequence-number service to an ESP-like packet format sealed with
// AES-128-GCM, its nonce the SA's salt XOR its SPI and the 64-bit sequence
// number (RFC 4106 with RFC 8750's implicit IV); EstablishSA runs a miniature IKE
// handshake to derive keys; the DPD types implement dead-peer detection and
// the paper's §6 prolonged-reset recovery (ExampleNewDPDMonitor composes them
// into a bidirectional host pair). Rekeying is RekeyOrchestrator's:
// make-before-break rollover between two gateways.
//
// At gateway scale the same medium carries every SA: Lanes (NewLanes)
// multiplexes the counters into append-only journal lanes with
// group-committed fsyncs — one log file with LanesCount(1), by default one
// lane per worker of a default SaverPool — a SaverPool bounds the
// background-save workers, and Gateway binds a lock-free SAD and SPD to
// both (see README.md, "Journal design notes").
//
// A Receiver left to build its own window (ReceiverConfig.Window nil) gets
// an RFC 6479 ring of 64-bit words, and every Admit decides under the
// receiver's mutex, as the paper's process q is one serialized process;
// only the SAVE hand-off runs outside it. Every packet takes the same
// path: Gateway.SealAppend and
// OpenAppend (Seal and Open are their allocating forms) over
// OutboundSA.SealAppend and InboundSA.OpenAppend, over Sender.Next and
// Receiver.Admit. Sequence exhaustion is a hard error: a
// non-ESN outbound SA refuses to wrap the 32-bit wire sequence number
// (ErrSeqExhausted) instead of silently reusing it, per RFC 4303.
//
// The paper's receiver-side theorem additionally requires that the window
// edge advance at most Kq numbers per save interval — an assumption message
// loss can break, and so can a scheduler stalling one SAVE among concurrent
// admitters (see README.md's analysis-gap note and the "horizon"
// experiment). The StrictHorizon option (always on in Gateway,
// NewJournalSender and NewJournalReceiver) removes the assumption by never
// delivering at or beyond committed+leap, making the no-duplicate-delivery
// guarantee unconditional; exactly-once under concurrent Admits or an
// in-process Reset is promised only with it.
//
// For high availability a Standby replicates a gateway's Lanes into a
// follower medium, lane to lane (snapshot-then-tail over the committed
// record stream, registered as each lane's sync follower so replication
// joins fsync in the durability contract) and keeps a warm, down-state
// image of the SA population and of the SPD in order (Gateway.Snapshot, a
// GatewaySnapshot of SASnapshot and PolicySnapshot records, applied by
// Standby.Mirror).
// Standby.Takeover is the epoch-fenced promotion: fence the deposed medium,
// drain the stream, durably bump the cluster epoch, and wake every SA from
// its replicated counter — the paper's wake-up, pointed at the replica, so
// the no-reuse and no-replay guarantees carry over to failover verbatim
// (see README.md, "High availability").
//
// Everything is deterministic under the simulation engine (Engine,
// SimSaver) used by the experiment harness that regenerates the paper's
// figures; see README.md and the experiments package in the repository.
package antireplay
