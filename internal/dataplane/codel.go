package dataplane

import (
	"math"
	"time"
)

// CoDel's parameters (RFC 8289 §4.4): 5 ms sojourn target, 100 ms sliding
// interval — the values the RFC recommends for the Internet, which WithAQM
// runs on every class.
const (
	codelTarget   = 5 * time.Millisecond
	codelInterval = 100 * time.Millisecond
)

// codel is one class's CoDel state, held by value in the engine's per-slot
// table and driven from the pump at dequeue time (under the scheduler lock).
// CoDel measures each packet's sojourn time — how long it sat staged — and
// starts dropping when the sojourn stays above target for a full interval,
// then accelerates drops as interval/sqrt(count) until the standing queue
// shrinks (RFC 8289). Unlike tail-drop, it ignores
// queue *length* entirely: a long queue that drains fast is fine, a short
// queue that lingers is not, which is exactly the signal a rate-paced
// link-sharing class needs for graceful degradation under overload.
type codel struct {
	target   float64 // seconds of acceptable standing sojourn
	interval float64 // seconds of grace before dropping starts

	aboveSince float64 // when sojourn first stayed above target (+interval)
	hasAbove   bool
	dropping   bool
	dropNext   float64 // next scheduled drop while in the dropping state
	count      int     // drops in the current dropping episode
	lastCount  int     // count when the previous episode ended
}

// newCodel returns per-class state for the given target and interval.
func newCodel(target, interval time.Duration) codel {
	return codel{target: target.Seconds(), interval: interval.Seconds()}
}

// onDequeue decides the fate of one packet about to leave the staging
// queue: true means drop it (and dequeue the next). now and the packet's
// sojourn are in seconds on the engine's clock.
func (c *codel) onDequeue(now, sojourn float64) bool {
	if sojourn < c.target {
		// Queue is draining within budget: leave the dropping state and
		// forget any pending first-above deadline.
		c.hasAbove = false
		c.dropping = false
		return false
	}
	if !c.hasAbove {
		c.hasAbove = true
		c.aboveSince = now + c.interval
		return false
	}
	if !c.dropping {
		if now < c.aboveSince {
			return false // above target, but not yet for a whole interval
		}
		// Enter the dropping state. If the previous episode ended recently,
		// resume near its drop rate instead of relearning it (RFC 8289
		// §4.2.2).
		c.dropping = true
		delta := c.count - c.lastCount
		c.count = 1
		if delta > 1 && now-c.dropNext < 16*c.interval {
			c.count = delta
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now)
		return true
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = c.controlLaw(c.dropNext)
		return true
	}
	return false
}

// controlLaw schedules the next drop: the inter-drop gap shrinks as
// 1/sqrt(count), steadily increasing pressure while the queue stands.
func (c *codel) controlLaw(t float64) float64 {
	return t + c.interval/math.Sqrt(float64(c.count))
}
