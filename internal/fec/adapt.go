package fec

import (
	"math"
)

// The adaptive control law's constants.
const (
	// alpha is the EWMA gain applied to each loss observation: high enough
	// to track a link going bad within a few feedback rounds, low enough
	// that one unlucky block doesn't double redundancy.
	alpha = 0.25
	// headroom scales the loss estimate before sizing redundancy: the code
	// is provisioned for headroom× the estimated loss, so ordinary variance
	// around the estimate doesn't immediately exceed what the block can
	// repair.
	headroom = 1.5
)

// Controller turns per-class loss observations into (k, r) retunes: an EWMA
// tracks the loss fraction, and Tune picks the cheapest geometry within
// bounds whose redundancy r/(k+r) covers headroom× that estimate. The bounds
// derive from the base spec: k in [min(2, base.K), base.K], and r in
// [1, MaxR] for RS, fixed at 1 for XOR. The dataplane feeds it from
// receiver feedback (Decoder.LossEstimate on the far side) or an
// operator-configured estimate, and applies Tune's spec via Encoder.Retune
// at block boundaries.
//
// Not goroutine-safe; the owning class serializes access.
type Controller struct {
	base       Spec
	minK, maxR int
	est        float64
	init       bool
	cur        Spec
}

// NewController builds a controller anchored at base (the spec used until
// observations say otherwise, and the fallback when loss is negligible).
func NewController(base Spec) (*Controller, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{base: base, minK: min(2, base.K), maxR: MaxR, cur: base}
	if base.Scheme == SchemeXOR {
		c.maxR = 1
	}
	return c, nil
}

// Observe folds one loss measurement (fraction in [0,1]) into the estimate.
func (c *Controller) Observe(loss float64) {
	if loss < 0 {
		loss = 0
	} else if loss > 1 {
		loss = 1
	}
	if !c.init {
		c.est, c.init = loss, true
		return
	}
	c.est = (1-alpha)*c.est + alpha*loss
}

// Estimate returns the current EWMA loss estimate.
func (c *Controller) Estimate() float64 { return c.est }

// Spec returns the geometry the controller last chose.
func (c *Controller) Spec() Spec { return c.cur }

// Tune returns the geometry for the next blocks: the least-redundant (k, r)
// within bounds whose overhead r/(k+r) is at least headroom× the loss
// estimate. With no observed loss it relaxes back to the base spec. XOR
// holds r = 1 and shrinks k instead (smaller blocks ⇒ more parity per
// datagram); RS holds k at base and grows r, shrinking k only once r is
// pinned at MaxR.
func (c *Controller) Tune() Spec {
	target := c.est * headroom
	if target > 0.5 {
		target = 0.5 // beyond 50% overhead, FEC is the wrong tool
	}
	spec := c.base
	if !c.init || target <= spec.Overhead() {
		c.cur = c.clamp(spec)
		return c.cur
	}
	if c.base.Scheme == SchemeXOR {
		// 1/(k+1) ≥ target ⇒ k ≤ 1/target − 1.
		k := int(1/target) - 1
		spec.K = k
	} else {
		// Grow r first: r/(k+r) ≥ target ⇔ r ≥ k·target/(1−target).
		k := spec.K
		need := func(k int) int {
			r := int(math.Ceil(float64(k) * target / (1 - target)))
			if r < 1 {
				r = 1
			}
			return r
		}
		r := need(k)
		for r > c.maxR && k > c.minK {
			k--
			r = need(k)
		}
		spec.K, spec.R = k, r
	}
	c.cur = c.clamp(spec)
	return c.cur
}

func (c *Controller) clamp(s Spec) Spec {
	s.K = max(c.minK, min(s.K, c.base.K))
	s.R = max(1, min(s.R, c.maxR))
	return s
}
