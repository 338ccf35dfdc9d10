// Package watchdog turns a hung test into a failure that costs seconds: a
// deadlocked test goroutine cannot fail itself, and `go test` only notices
// at the package timeout (ten minutes by default).
package watchdog

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// TB is the part of testing.TB the watchdog needs.
type TB interface {
	Name() string
	Cleanup(func())
}

// Arm kills the test binary, after dumping every goroutine's stack, unless
// t finishes within limit.
func Arm(t TB, limit time.Duration) {
	timer := time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "watchdog: %s still running after %v; goroutines:\n\n%s\n", t.Name(), limit, buf)
		os.Exit(2)
	})
	t.Cleanup(func() { timer.Stop() })
}
