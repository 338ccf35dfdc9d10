package stats

import "sync/atomic"

// Counter is a goroutine-safe monotone event count: Add accumulates, Value
// reads. The applied-record and snapshot-load counters of the replication
// pipeline are Counters; rates derive from reading them over time. The
// zero value is a counter at 0, ready for use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Value returns the accumulated count.
func (c *Counter) Value() uint64 { return c.v.Load() }
