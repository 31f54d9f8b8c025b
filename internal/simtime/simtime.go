// Package simtime provides the virtual-time foundation of the simulator.
//
// Every MPI rank owns a Clock that advances only when the rank performs
// work: computation, communication, or file I/O. Shared hardware (NICs,
// fabric links, storage targets) is modelled as Resource queues: a rank
// asking for service at virtual time t is served no earlier than the moment
// the resource becomes free, which is how contention turns into elapsed
// virtual time. Communication between ranks carries timestamps, so causality
// propagates with the data (LogGOPSim-style conservative simulation).
package simtime

import (
	"fmt"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately a
// distinct type from time.Duration so that real and simulated time cannot be
// mixed by accident; use FromReal/ToReal at the boundary.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromReal converts a time.Duration into a simulated Duration.
func FromReal(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// ToReal converts a simulated Duration into a time.Duration.
func (d Duration) ToReal() time.Duration { return time.Duration(d) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using time.Duration's human-readable form.
func (d Duration) String() string { return time.Duration(d).String() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the instant as floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as an offset from simulation start.
func (t Time) String() string { return fmt.Sprintf("+%v", time.Duration(t)) }

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// BytesDuration returns the time needed to move n bytes at bw bytes/second.
// A non-positive bandwidth means "infinitely fast" and costs nothing.
func BytesDuration(n int64, bw float64) Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bw * float64(Second))
}

// Clock is one rank's private virtual clock. Clocks only move forward.
// A Clock is not safe for concurrent use; each rank goroutine owns its own.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the simulation start.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d is ignored: time never
// runs backwards, and charging a zero-or-negative cost is a no-op.
func (c *Clock) Advance(d Duration) Time {
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the clock's future.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Resource is a shared serial server: think of one NIC, one storage target,
// or one metadata server. Acquire reserves the resource for a duration,
// returning when the work starts and ends. Callers are served in host call
// order, not virtual-time order: a rank that runs ahead on the host
// reserves time far in the virtual future, and a rank still at an earlier
// virtual instant then queues behind it. Results that share a Resource
// between barriers therefore depend on goroutine scheduling (see ROADMAP.md,
// "Virtual-time-ordered execution"). Resources are safe for concurrent use
// by many rank goroutines.
type Resource struct {
	mu       sync.Mutex
	name     string
	nextFree Time
	busy     Duration // total busy time, for utilization reporting
	requests int64
}

// NewResource creates a named serial resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

// Acquire reserves the resource for dur, starting at the later of now and
// the end of the reservation made by the previous call, whatever that
// call's virtual instant. It returns the start and end instants of the
// reserved service window.
func (r *Resource) Acquire(now Time, dur Duration) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start = Max(now, r.nextFree)
	end = start.Add(dur)
	r.nextFree = end
	r.busy += dur
	r.requests++
	return start, end
}

// Stats reports the accumulated busy time and request count.
func (r *Resource) Stats() (busy Duration, requests int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy, r.requests
}

// Reset clears the resource queue and statistics, for reuse across runs.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextFree = 0
	r.busy = 0
	r.requests = 0
}

// Gauge counts concurrently active operations (e.g. in-flight network
// flows). It is used to scale contention penalties. Safe for concurrent use.
type Gauge struct {
	mu   sync.Mutex
	cur  int
	peak int
}

// Inc registers one more active operation and returns the new level.
func (g *Gauge) Inc() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur++
	if g.cur > g.peak {
		g.peak = g.cur
	}
	return g.cur
}

// Dec unregisters one active operation.
func (g *Gauge) Dec() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur > 0 {
		g.cur--
	}
}

// Level reports the current number of active operations.
func (g *Gauge) Level() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// Peak reports the maximum concurrency seen since the last Reset.
func (g *Gauge) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Reset zeroes the gauge.
func (g *Gauge) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur = 0
	g.peak = 0
}
