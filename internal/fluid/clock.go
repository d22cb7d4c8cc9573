// Package fluid implements the paper's fluid reference systems: the exact
// GPS virtual time function V_GPS (eq. 4–5) used by WFQ and WF²Q, the
// one-level GPS fluid server (§2.1), and the hierarchical H-GPS fluid server
// (§2.2). These are the idealized systems that the packet algorithms
// approximate, and the yardsticks every experiment measures against.
package fluid

import (
	"fmt"
	"math"

	"hpfq/internal/pq"
)

// Clock is the exact GPS virtual time function of eq. 4–5:
//
//	dV/dt = r / Σ_{i∈B_GPS(t)} r_i
//
// where B_GPS is the set of sessions backlogged in the corresponding fluid
// GPS system. A session stays GPS-backlogged until V reaches the virtual
// finish time of its last arrived packet, so the clock tracks, per session,
// the largest assigned virtual finish time in a min-heap; advancing the
// clock pops sessions whose work the fluid server has completed.
//
// Advancing across k session-departure breakpoints costs O(k log N) — this
// is the O(N) worst-case cost per operation that the paper attributes to
// WFQ and WF²Q (§2.1, §3.4) and that WF²Q+ avoids.
type Clock struct {
	rate   float64
	v      float64
	now    float64
	rates  []float64
	lastF  []float64
	active *pq.Heap // session → last assigned virtual finish
	sumR   float64  // Σ r_i over GPS-backlogged sessions
}

// NewClock returns a GPS virtual clock for a server of the given rate.
func NewClock(rate float64) *Clock {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("fluid: invalid clock rate %g", rate))
	}
	return &Clock{rate: rate, active: pq.NewHeap(8)}
}

// AddSession registers session id with guaranteed rate r_i.
func (c *Clock) AddSession(id int, rate float64) {
	if id < 0 {
		panic("fluid: negative session id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("fluid: invalid session rate %g", rate))
	}
	for len(c.rates) <= id {
		c.rates = append(c.rates, 0)
		c.lastF = append(c.lastF, 0)
	}
	if c.rates[id] != 0 {
		panic(fmt.Sprintf("fluid: duplicate session id %d", id))
	}
	c.rates[id] = rate
}

// Advance moves real time forward to now, evolving V across fluid session
// departures. Calling with a time before the current clock time panics.
func (c *Clock) Advance(now float64) {
	if now < c.now {
		panic(fmt.Sprintf("fluid: clock moved backwards: %g < %g", now, c.now))
	}
	dt := now - c.now
	c.now = now
	for dt > 0 && !c.active.Empty() {
		minF := c.active.MinKey()
		// Real time needed for V to reach the next departure breakpoint.
		need := (minF - c.v) * c.sumR / c.rate
		if need > dt {
			c.v += dt * c.rate / c.sumR
			return
		}
		c.v = minF
		dt -= need
		for !c.active.Empty() && c.active.MinKey() <= c.v {
			id, _, _ := c.active.Pop()
			c.sumR -= c.rates[id]
		}
		if c.sumR < 1e-9 {
			c.sumR = 0
		}
	}
	// GPS system idle: V holds. All sessions' last finishes have been
	// reached, so new arrivals will start at max(F_i, V) = V.
}

// V returns the current virtual time. Call Advance(now) first.
func (c *Clock) V() float64 { return c.v }

// Now returns the real time the clock was last advanced to.
func (c *Clock) Now() float64 { return c.now }

// Backlogged reports whether the fluid GPS system still has unfinished work.
func (c *Clock) Backlogged() bool { return !c.active.Empty() }

// Stamp assigns virtual start and finish times (eq. 6–7) to a packet of the
// given length arriving on session id at the clock's current time:
//
//	S = max(F_prev, V)   F = S + L/r_i
//
// and registers the session's new last virtual finish with the fluid system.
// The caller must Advance to the arrival time first.
func (c *Clock) Stamp(id int, length float64) (s, f float64) {
	r := c.rates[id]
	if r == 0 {
		panic(fmt.Sprintf("fluid: stamp for unknown session %d", id))
	}
	s = math.Max(c.lastF[id], c.v)
	return s, c.register(id, s, length, r)
}

// StampChained assigns virtual times with the continuation rule of the
// paper's H-PFQ pseudocode (Reset-Path lines 8–9): S = F_prev always, even
// when the clock's virtual time has run past it. Hierarchical server nodes
// use this when a continuously backlogged child's next head packet replaces
// the one just served — with only head-of-queue visibility the node's fluid
// system would otherwise run ahead and penalize the child (see
// sched.WFQNode).
func (c *Clock) StampChained(id int, length float64) (s, f float64) {
	r := c.rates[id]
	if r == 0 {
		panic(fmt.Sprintf("fluid: stamp for unknown session %d", id))
	}
	s = c.lastF[id]
	return s, c.register(id, s, length, r)
}

func (c *Clock) register(id int, s, length, r float64) (f float64) {
	f = s + length/r
	c.lastF[id] = f
	if c.active.Contains(id) {
		c.active.Update(id, f)
	} else {
		c.active.Push(id, f)
		c.sumR += r
	}
	return f
}
