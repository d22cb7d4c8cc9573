// Package overload implements the pressure-and-health subsystem behind
// hpfq's graceful-degradation story: it condenses raw dataplane signals
// (staging occupancy, buffer-pool misses, pump heartbeat age, write-retry
// and supervisor-restart rates) into one smoothed pressure score, runs a
// four-state health machine (healthy → degraded → overloaded → wedged)
// with hysteresis bands on top of it, and answers the two questions the
// engine asks under load: "what fraction of the class hierarchy should
// shed right now?" and "should expensive features brown out?".
//
// The package is deliberately free of hpfq dependencies: callers sample
// their own signals and feed them to a Tracker; the Tracker holds no
// goroutines, timers, or clocks of its own, so it is trivially testable
// and reusable. All methods are safe for concurrent use.
package overload

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// State is a health level in the degradation ladder. Order matters:
// comparisons like s >= Overloaded gate brownout decisions.
type State int

const (
	// Healthy: pressure below the degraded band; no shedding, all
	// features enabled.
	Healthy State = iota
	// Degraded: sustained pressure; priority-aware shedding is active
	// but all features remain enabled.
	Degraded
	// Overloaded: severe pressure; shedding plus brownout (expensive
	// features disabled). /healthz answers 503.
	Overloaded
	// Wedged: the pump cannot make progress (stalled writer or
	// panic-looping supervisor tripped the circuit breaker). /healthz
	// answers 503; recovery requires fresh pump progress.
	Wedged
)

// MarshalJSON renders the state as its lowercase name, so /api/health and
// /api/status read "degraded" rather than 1.
func (s State) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the lowercase name form MarshalJSON emits (clients
// round-tripping /api/status and /api/health payloads need both halves).
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for _, c := range []State{Healthy, Degraded, Overloaded, Wedged} {
		if name == c.String() {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("overload: unknown state %q", name)
}

// String renders the state in the lowercase form used by /api/health.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Overloaded:
		return "overloaded"
	case Wedged:
		return "wedged"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Worst returns the most severe of the given states (Healthy when none are
// given) — the gateway-level rollup of per-shard health: one wedged shard
// makes the whole gateway wedged, because traffic hashed onto it is stuck
// regardless of how the others feel.
func Worst(states ...State) State {
	worst := Healthy
	for _, s := range states {
		if s > worst {
			worst = s
		}
	}
	return worst
}

// Signals is one sample of raw pressure inputs. All *Frac fields are
// fractions in [0,1]; the Tracker clamps out-of-range values.
type Signals struct {
	// QueueFrac is staged packets / aggregate packet cap.
	QueueFrac float64
	// ByteFrac is staged bytes / aggregate byte cap.
	ByteFrac float64
	// PoolMissFrac is the recent buffer-pool miss rate
	// (allocations / gets since the previous sample).
	PoolMissFrac float64
	// RetryFrac is recent write retries / write attempts.
	RetryFrac float64
	// RestartRate is supervisor restarts per second over the recent
	// window.
	RestartRate float64
	// HeartbeatAge is the time since the pump last stamped its
	// heartbeat.
	HeartbeatAge time.Duration
	// Backlogged reports whether work is waiting (a stale heartbeat
	// with an empty queue is an idle pump, not a stalled one).
	Backlogged bool
}

// The tracker's tuning. Every deployment runs these values; only the stall
// threshold is a constructor argument, because the pump watchdog sets it.
const (
	// SampleInterval is the cadence callers sample at. The Tracker keeps
	// no timer; the interval only normalizes rate-style signals.
	SampleInterval = 25 * time.Millisecond
	// defaultStallThreshold is the heartbeat age beyond which a
	// backlogged pump counts as stalled when no watchdog sets one.
	defaultStallThreshold = 500 * time.Millisecond
	// StallBreaker is the number of consecutive stall detections that
	// trip the circuit breaker into Wedged.
	StallBreaker = 3
	// RestartBreaker supervisor restarts within RestartWindow trip the
	// breaker into Wedged.
	RestartBreaker = 8
	RestartWindow  = 10 * time.Second

	// smoothing is the EWMA gain applied to the raw score
	// (new = α·raw + (1−α)·old).
	smoothing = 0.3
	// degradedEnter/degradedExit bound the healthy↔degraded hysteresis
	// band, overloadedEnter/overloadedExit the degraded↔overloaded one.
	degradedEnter   = 0.5
	degradedExit    = 0.35
	overloadedEnter = 0.8
	overloadedExit  = 0.6
)

// Tracker is the health state machine. Create with New, feed samples
// with Observe, and read State/Pressure/ShedFrac from any goroutine.
type Tracker struct {
	stallThreshold time.Duration

	mu          sync.Mutex
	pressure    float64 // EWMA-smoothed score
	state       State
	last        Signals // most recent raw sample
	stalls      int     // consecutive stall detections
	totalStalls uint64
	brownouts   uint64 // transitions into+out of Overloaded/Wedged
	wedgedHard  bool   // breaker tripped; only NoteProgress clears
}

// New returns a Tracker in the Healthy state whose pump counts as stalled
// once its heartbeat is older than stallThreshold while work is queued (0
// selects defaultStallThreshold).
func New(stallThreshold time.Duration) *Tracker {
	if stallThreshold <= 0 {
		stallThreshold = defaultStallThreshold
	}
	return &Tracker{stallThreshold: stallThreshold}
}

// score condenses one raw sample into [0,1]. Occupancy dominates;
// heartbeat staleness (when backlogged) ramps toward 1 as the age
// approaches the stall threshold; retries, restarts, and pool misses
// contribute a weighted correction term.
func (t *Tracker) score(s Signals) float64 {
	occ := clamp01(s.QueueFrac)
	if b := clamp01(s.ByteFrac); b > occ {
		occ = b
	}
	var stale float64
	if s.Backlogged {
		stale = clamp01(float64(s.HeartbeatAge) / float64(t.stallThreshold))
	}
	aux := 0.5*clamp01(s.RetryFrac) + 0.3*clamp01(s.PoolMissFrac) +
		0.4*clamp01(s.RestartRate*RestartWindow.Seconds()/RestartBreaker)
	raw := occ
	if stale > raw {
		raw = stale
	}
	return clamp01(raw + aux*(1-raw))
}

// Observe folds one sample into the smoothed pressure score, advances
// the hysteresis state machine, and returns the resulting state.
func (t *Tracker) Observe(s Signals) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last = s
	raw := t.score(s)
	t.pressure = smoothing*raw + (1-smoothing)*t.pressure
	t.advanceLocked()
	return t.state
}

// advanceLocked applies the hysteresis bands to the current pressure.
// A hard wedge (breaker tripped) pins the state until NoteProgress.
func (t *Tracker) advanceLocked() {
	if t.wedgedHard {
		t.setStateLocked(Wedged)
		return
	}
	next := t.state
	switch t.state {
	case Healthy:
		if t.pressure >= degradedEnter {
			next = Degraded
		}
		if t.pressure >= overloadedEnter {
			next = Overloaded
		}
	case Degraded:
		if t.pressure >= overloadedEnter {
			next = Overloaded
		} else if t.pressure < degradedExit {
			next = Healthy
		}
	case Overloaded, Wedged:
		if t.pressure < degradedExit {
			next = Healthy
		} else if t.pressure < overloadedExit {
			next = Degraded
		}
	}
	t.setStateLocked(next)
}

// setStateLocked records a transition, counting brownout boundary
// crossings (into or out of Overloaded/Wedged).
func (t *Tracker) setStateLocked(next State) {
	if next == t.state {
		return
	}
	wasBrown := t.state >= Overloaded
	isBrown := next >= Overloaded
	if wasBrown != isBrown {
		t.brownouts++
	}
	t.state = next
}

// NoteStall records one watchdog stall detection and reports whether
// the circuit breaker has tripped (StallBreaker consecutive stalls). Once
// tripped the tracker pins itself to Wedged until NoteProgress.
func (t *Tracker) NoteStall() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stalls++
	t.totalStalls++
	if t.stalls >= StallBreaker {
		t.wedgedHard = true
		t.setStateLocked(Wedged)
	}
	return t.wedgedHard
}

// NoteProgress records fresh pump progress: it clears the consecutive
// stall count and releases a tripped breaker, letting hysteresis walk
// the state back down on subsequent Observe calls.
func (t *Tracker) NoteProgress() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stalls = 0
	if t.wedgedHard {
		t.wedgedHard = false
		t.advanceLocked()
	}
}

// ForceWedged trips the breaker directly (used when the supervisor
// exceeds its restart budget).
func (t *Tracker) ForceWedged() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wedgedHard = true
	t.setStateLocked(Wedged)
}

// BreakerTripped reports whether the circuit breaker is currently holding
// the tracker in Wedged (only NoteProgress releases it).
func (t *Tracker) BreakerTripped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wedgedHard
}

// State returns the current health state.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Pressure returns the smoothed pressure score in [0,1].
func (t *Tracker) Pressure() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pressure
}

// Last returns the most recent raw sample.
func (t *Tracker) Last() Signals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// Stalls returns the total number of watchdog stall detections.
func (t *Tracker) Stalls() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalStalls
}

// BrownoutTransitions returns the number of brownout boundary
// crossings (entering or leaving Overloaded/Wedged).
func (t *Tracker) BrownoutTransitions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.brownouts
}

// ShedFrac returns the fraction of the shed order that should be
// shedding right now: 0 below Degraded, then scaling linearly with
// pressure above the degraded threshold up to 1 at full pressure.
// Wedged always sheds everything sheddable.
func (t *Tracker) ShedFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.state == Healthy:
		return 0
	case t.state == Wedged:
		return 1
	}
	f := (t.pressure - degradedEnter) / (1 - degradedEnter)
	// A tracker in Degraded via hysteresis may momentarily sit below
	// the enter threshold; keep a minimal shed floor while degraded.
	if f < 0.1 {
		f = 0.1
	}
	return clamp01(f)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
