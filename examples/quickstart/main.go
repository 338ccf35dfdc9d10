// Quickstart: a reset-resilient sequence-number pair persisting to a
// one-lane journal — the minimal use of the antireplay public API.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"antireplay"
)

// open builds the pair over the journal in dir: one medium, keys "tx" and
// "rx", one saver pool. The constructors return endpoints that are up — over
// a directory a prior life used, at its counters + 2K — so a restart is
// calling open again and nothing else. K = 25: persist the counters every 25
// messages (the paper's example sizing for a 100µs disk write and 4µs
// sends).
func open(dir string) (*antireplay.Sender, *antireplay.Receiver, func()) {
	journal, err := antireplay.NewLanes(dir, antireplay.LanesCount(1))
	if err != nil {
		log.Fatal(err)
	}
	pool := antireplay.NewSaverPool(1)
	snd, err := antireplay.NewJournalSender(journal, "tx", 25, pool)
	if err != nil {
		log.Fatal(err)
	}
	rcv, err := antireplay.NewJournalReceiver(journal, "rx", 25, 64, pool)
	if err != nil {
		log.Fatal(err)
	}
	return snd, rcv, func() {
		pool.Close() // wait for in-flight saves
		if err := journal.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// send numbers one message and offers it to the receiver, paced like a
// 10kpps flow: the paper's sizing rule K >= ceil(T_save/T_send) (see
// antireplay.SizeK) assumes at most K messages flow while one save is in
// flight, and a tight loop against a ~1ms fsync would not keep to it. What
// happens then is bounded backpressure, not reuse: ErrSaveLag and
// VerdictHorizon say a counter is 2K past its last completed SAVE, and clear
// when the save in flight lands.
func send(snd *antireplay.Sender, rcv *antireplay.Receiver) (uint64, antireplay.Verdict) {
	time.Sleep(100 * time.Microsecond)
	seq, err := snd.Next()
	for errors.Is(err, antireplay.ErrSaveLag) {
		time.Sleep(100 * time.Microsecond)
		seq, err = snd.Next()
	}
	if err != nil {
		log.Fatal(err)
	}
	v := rcv.Admit(seq)
	for v == antireplay.VerdictHorizon {
		time.Sleep(100 * time.Microsecond)
		v = rcv.Admit(seq)
	}
	return seq, v
}

// wake boots a reset endpoint back up — FETCH + leap(2K) + synchronous
// SAVE — and returns once it has resumed.
func wake(wakeNotify func(done func(error))) {
	woke := make(chan error, 1)
	wakeNotify(func(err error) { woke <- err })
	if err := <-woke; err != nil {
		log.Fatalf("wake failed: %v", err)
	}
}

func main() {
	dir, err := os.MkdirTemp("", "antireplay-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snd, rcv, closePair := open(dir)

	// Normal operation: number messages, admit them.
	var history []uint64
	for i := 0; i < 100; i++ {
		seq, v := send(snd, rcv)
		if !v.Delivered() {
			log.Fatalf("fresh message %d not delivered: %v", seq, v)
		}
		history = append(history, seq)
	}
	fmt.Printf("sent and delivered %d messages; receiver edge = %d\n",
		len(history), rcv.Edge())

	// Crash the receiver. A message arriving while it is down is lost; the
	// sender is unaffected.
	before := rcv.Edge()
	rcv.Reset()
	seq, v := send(snd, rcv)
	history = append(history, seq)
	fmt.Printf("receiver reset: message %d is %v\n", seq, v)

	wake(rcv.WakeNotify)
	fmt.Printf("receiver woke: edge leaped to %d (was %d before the crash)\n",
		rcv.Edge(), before)

	// Anti-replay survives the reset: the whole history is rejected.
	for _, old := range history {
		if v := rcv.Admit(old); v.Delivered() {
			log.Fatalf("SAFETY: replay of %d delivered", old)
		}
	}
	fmt.Printf("adversary replayed %d old messages: all rejected\n", len(history))

	// Fresh traffic flows again once the sender passes the leaped edge; at
	// most 2K fresh messages are sacrificed (§5 condition ii).
	sacrificed := 0
	for {
		seq, v = send(snd, rcv)
		history = append(history, seq)
		if v.Delivered() {
			break
		}
		sacrificed++
	}
	fmt.Printf("fresh traffic resumed after %d sacrificed messages (bound 2K = 50)\n",
		sacrificed)

	// Crash the sender too — it resumes above every number it ever used.
	snd.Reset()
	wake(snd.WakeNotify)
	if seq, v = send(snd, rcv); !v.Delivered() {
		log.Fatalf("fresh message %d not delivered: %v", seq, v)
	}
	history = append(history, seq)
	fmt.Printf("sender woke: resumed at %d, delivered — no sequence number is ever reused\n", seq)

	// The reset the paper is about kills the process. Close everything,
	// open the same directory again and construct again: no Reset, no Wake.
	closePair()
	snd, rcv, closePair = open(dir)
	defer closePair()
	first, err := snd.Next()
	if err != nil || first <= seq {
		log.Fatalf("SAFETY: first number after restart = %d (%v), want one above %d", first, err, seq)
	}
	fmt.Printf("process restarted: first number is %d, above every number used (last was %d)\n",
		first, seq)
	for _, old := range history {
		if v := rcv.Admit(old); v.Delivered() {
			log.Fatalf("SAFETY: replay of %d delivered after restart", old)
		}
	}
	fmt.Printf("adversary replayed %d old messages at the restarted receiver: all rejected\n",
		len(history))
}
