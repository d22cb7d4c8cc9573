// Package wallclock is the shared time abstraction for every component
// that paces work in real time (internal/dataplane, internal/shard). It
// exists so wall-clock behaviour is pluggable: production code runs on Real,
// tests drive the same code deterministically with Fake.
//
// The interface is deliberately minimal — Now for timestamps, Since for
// elapsed readings against an earlier Now, and AfterFunc for timers — so any component can build blocking waits (timer channel +
// select) or callback chains on top without the clock knowing which.
package wallclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts timer scheduling and the current instant.
type Clock interface {
	// AfterFunc runs fn after d on the clock's timeline. fn runs on an
	// unspecified goroutine (a timer goroutine for Real, the Advance caller
	// for Fake) and must not assume any locks are held.
	AfterFunc(d time.Duration, fn func())
	// Now returns the current instant on the clock's timeline.
	Now() time.Time
	// Since returns the time elapsed since t, an earlier Now reading: the
	// same value as Now().Sub(t), but Real reads only the monotonic clock.
	Since(t time.Time) time.Duration
}

// Real is the production clock: time.Now and time.AfterFunc.
type Real struct{}

// AfterFunc schedules fn on the runtime timer heap.
func (Real) AfterFunc(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Now returns the wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Since returns time.Since(t). For t from Now, which carries a monotonic
// reading, that reads the monotonic clock alone — about half the cost of
// time.Now, which reads the wall clock too.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Fake is a deterministic Clock for tests: time stands still until Advance
// moves it, firing due timers in order. The zero epoch is time.Unix(0, 0).
// Fake is safe for concurrent use; timers scheduled by other goroutines
// between Advance calls fire on the next Advance that reaches them.
type Fake struct {
	mu     sync.Mutex
	now    time.Duration
	timers timerHeap
	seq    int
}

// NewFake returns a fake clock at its zero epoch.
func NewFake() *Fake { return &Fake{} }

type fakeTimer struct {
	at  time.Duration
	seq int
	fn  func()
}

type timerHeap []*fakeTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*fakeTimer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// AfterFunc registers fn to fire when virtual time reaches now+d.
func (c *Fake) AfterFunc(d time.Duration, fn func()) {
	c.mu.Lock()
	c.seq++
	heap.Push(&c.timers, &fakeTimer{at: c.now + d, seq: c.seq, fn: fn})
	c.mu.Unlock()
}

// Now returns the current virtual instant.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, 0).Add(c.now)
}

// Since returns the virtual time elapsed since t.
func (c *Fake) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Elapsed returns the virtual time since the clock's epoch.
func (c *Fake) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d, firing due timers in timestamp
// order (FIFO among equal timestamps). Timer callbacks run with the clock
// unlocked and may schedule further timers — chains fire within the same
// Advance as long as they stay inside the window.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now + d
	for len(c.timers) > 0 && c.timers[0].at <= target {
		t := heap.Pop(&c.timers).(*fakeTimer)
		c.now = t.at
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}
