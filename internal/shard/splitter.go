package shard

import "time"

// The rate splitter keeps the shard set work-conserving against the shared
// link: every shard owns a guaranteed slice (link rate / N) of the pacing
// budget, and each tick the splitter lends the slices of idle shards to the
// backlogged ones. Only the token-refill rate moves (Dataplane.SetPaceRate);
// scheduler virtual times, ceilings, and class guarantees stay pinned to
// the per-shard configuration, so intra-shard fairness is untouched by the
// loan.
//
// Invariants, in order of priority:
//
//  1. Σ pace(i) over backlogged shards == link rate, every tick — the
//     splitter redistributes, it never mints bandwidth. (Idle shards keep
//     their base refill armed — they have nothing to send, and a shard
//     waking mid-tick starts at its guarantee instead of waiting out the
//     tick — so for at most one tick after a wake the transmitting sum can
//     overshoot by that shard's base slice.)
//  2. pace(i) >= base for every backlogged shard — a loan is strictly on
//     top of the guarantee, so no busy shard can be starved below its
//     slice by another's burst.
//  3. Deficit carry: an idle shard banks the slice it lends each tick
//     (bounded by carryTicks ticks), and when it becomes busy the bank
//     weights the division of the idle pool toward it — a shard that
//     has been lending longest is paid back first, which keeps long-run
//     per-shard service near N equal slices even under skewed arrivals.
//
// Busy/idle is sampled from Dataplane.Backlog once per tick; the splitter
// is the only writer of pace rates, so there are no cross-shard locks on
// the packet path — the pump reads its pace with one atomic load per batch.

// SplitTick is the redistribution cadence. 5 ms matches the engine's
// default burst depth (5 ms of egress), so a retarget lands within one
// batch horizon.
const SplitTick = 5 * time.Millisecond

// carryTicks bounds the banked credit of an idle shard, in ticks of its
// base slice. The bound keeps a long-idle shard from hoarding a claim that
// would let it monopolize the idle pool for many ticks after waking.
const carryTicks = 4

// splitter is the redistribution loop, started by Start when N > 1 and
// joined by Close. It owns s.carry and s.lastPace exclusively.
func (s *Sharded) splitter() {
	defer close(s.done)
	for n := int64(1); ; n++ {
		tick := make(chan struct{})
		s.clk.AfterFunc(SplitTick, func() {
			s.ticked.Store(n)
			close(tick)
		})
		s.armed.Store(n)
		select {
		case <-s.stop:
			// Hand every shard its guaranteed slice back on the way out.
			for _, d := range s.shards {
				d.SetPaceRate(s.base)
			}
			return
		case <-tick:
		}
		s.retarget()
	}
}

// retarget performs one redistribution tick.
func (s *Sharded) retarget() {
	tickSec := SplitTick.Seconds()
	tickBits := s.base * tickSec
	carryCap := tickBits * carryTicks

	busyCount := 0
	pool := 0.0    // idle shards' lent rate, bits/sec
	weights := 0.0 // Σ (tickBits + carry) over busy shards
	for i, d := range s.shards {
		s.busy[i] = d.Backlog() > 0
		if s.busy[i] {
			busyCount++
			weights += tickBits + s.carry[i]
		} else {
			pool += s.base
			if s.carry[i] += tickBits; s.carry[i] > carryCap {
				s.carry[i] = carryCap
			}
		}
	}
	if busyCount == 0 || busyCount == len(s.shards) {
		// Nothing to lend (all busy) or nobody to lend to (all idle):
		// everyone runs at the guarantee.
		for i, d := range s.shards {
			s.setPace(i, d, s.base)
		}
		return
	}
	for i, d := range s.shards {
		if !s.busy[i] {
			s.setPace(i, d, s.base)
			continue
		}
		extra := pool * (tickBits + s.carry[i]) / weights
		if spent := extra * tickSec; spent >= s.carry[i] {
			s.carry[i] = 0
		} else {
			s.carry[i] -= spent
		}
		s.setPace(i, d, s.base+extra)
	}
}

// setPace retargets one shard, skipping the call (and its pump wakeup) when
// the rate is already within rounding of the target.
func (s *Sharded) setPace(i int, d interface{ SetPaceRate(float64) }, rate float64) {
	if prev := s.lastPace[i]; prev != 0 {
		if diff := rate - prev; diff < 1e-6*s.base && diff > -1e-6*s.base {
			return
		}
	}
	s.lastPace[i] = rate
	d.SetPaceRate(rate)
}
