package overload

import (
	"encoding/json"
	"testing"
	"time"
)

// observeN feeds the same sample n times, returning the final state.
func observeN(t *Tracker, s Signals, n int) State {
	st := t.State()
	for i := 0; i < n; i++ {
		st = t.Observe(s)
	}
	return st
}

// TestHysteresisLadder: pressure walks the state machine up through
// degraded to overloaded, and back down only after crossing the *exit*
// thresholds — the enter thresholds alone must not flap the state.
func TestHysteresisLadder(t *testing.T) {
	tr := New(0)

	if tr.State() != Healthy {
		t.Fatalf("initial state = %v, want healthy", tr.State())
	}

	// Sustained 60% occupancy crosses DegradedEnter (0.5) once smoothed.
	if st := observeN(tr, Signals{QueueFrac: 0.6}, 50); st != Degraded {
		t.Fatalf("state after sustained 0.6 = %v, want degraded", st)
	}
	// Dropping into the hysteresis band (between exit 0.35 and enter 0.5)
	// must hold degraded, not bounce back to healthy.
	if st := observeN(tr, Signals{QueueFrac: 0.45}, 50); st != Degraded {
		t.Fatalf("state inside hysteresis band = %v, want degraded", st)
	}
	// Full queues push through OverloadedEnter (0.8).
	if st := observeN(tr, Signals{QueueFrac: 1.0}, 50); st != Overloaded {
		t.Fatalf("state after sustained 1.0 = %v, want overloaded", st)
	}
	if tr.Pressure() < overloadedEnter {
		t.Fatalf("pressure = %v, want >= %v", tr.Pressure(), overloadedEnter)
	}
	// Between OverloadedExit (0.6) and OverloadedEnter: still overloaded.
	if st := observeN(tr, Signals{QueueFrac: 0.7}, 50); st != Overloaded {
		t.Fatalf("state inside overloaded band = %v, want overloaded", st)
	}
	// Below OverloadedExit: degraded again.
	if st := observeN(tr, Signals{QueueFrac: 0.5}, 50); st != Degraded {
		t.Fatalf("state after easing to 0.5 = %v, want degraded", st)
	}
	// Quiet link: all the way back to healthy.
	if st := observeN(tr, Signals{}, 100); st != Healthy {
		t.Fatalf("state after quiescence = %v, want healthy", st)
	}
	// Up and back down across the brownout boundary exactly once each way.
	if got := tr.BrownoutTransitions(); got != 2 {
		t.Fatalf("brownout transitions = %d, want 2", got)
	}
}

// TestStallBreaker: consecutive stalls trip the breaker into wedged, which
// pins the state against any pressure reading until NoteProgress releases
// it.
func TestStallBreaker(t *testing.T) {
	tr := New(0)
	for i := 0; i < 2; i++ {
		if tr.NoteStall() {
			t.Fatalf("breaker tripped after %d stalls, want 3", i+1)
		}
	}
	if !tr.NoteStall() {
		t.Fatal("breaker did not trip at the configured stall count")
	}
	if tr.State() != Wedged || !tr.BreakerTripped() {
		t.Fatalf("state = %v tripped = %v, want wedged/true", tr.State(), tr.BreakerTripped())
	}
	// A calm sample cannot talk a tripped breaker down.
	if st := observeN(tr, Signals{}, 50); st != Wedged {
		t.Fatalf("state with tripped breaker = %v, want wedged", st)
	}
	if tr.ShedFrac() != 1 {
		t.Fatalf("wedged shed frac = %v, want 1", tr.ShedFrac())
	}
	// Progress releases the breaker; quiet pressure walks it home.
	tr.NoteProgress()
	if tr.BreakerTripped() {
		t.Fatal("breaker still tripped after NoteProgress")
	}
	if st := observeN(tr, Signals{}, 50); st != Healthy {
		t.Fatalf("state after release = %v, want healthy", st)
	}
	if tr.Stalls() != 3 {
		t.Fatalf("total stalls = %d, want 3", tr.Stalls())
	}
}

// TestProgressResetsConsecutiveStalls: stalls interleaved with progress
// never accumulate to the breaker.
func TestProgressResetsConsecutiveStalls(t *testing.T) {
	tr := New(0)
	for i := 0; i < 10; i++ {
		if tr.NoteStall() {
			t.Fatal("breaker tripped despite interleaved progress")
		}
		tr.NoteProgress()
	}
}

// TestStaleHeartbeatScores: a stale heartbeat only raises pressure while
// work is backlogged — an idle pump is not a stalled pump.
func TestStaleHeartbeatScores(t *testing.T) {
	tr := New(0)
	stale := Signals{HeartbeatAge: time.Second, Backlogged: false}
	if st := observeN(tr, stale, 50); st != Healthy {
		t.Fatalf("idle stale heartbeat drove state to %v, want healthy", st)
	}
	stale.Backlogged = true
	if st := observeN(tr, stale, 50); st < Overloaded {
		t.Fatalf("backlogged stale heartbeat left state %v, want >= overloaded", st)
	}
}

// TestShedFracScaling: shed fraction is 0 while healthy, floored just
// above 0 while degraded, and grows toward 1 with pressure.
func TestShedFracScaling(t *testing.T) {
	tr := New(0)
	if f := tr.ShedFrac(); f != 0 {
		t.Fatalf("healthy shed frac = %v, want 0", f)
	}
	observeN(tr, Signals{QueueFrac: 0.55}, 100)
	low := tr.ShedFrac()
	if tr.State() != Degraded || low <= 0 || low >= 0.5 {
		t.Fatalf("mildly degraded shed frac = %v (state %v), want small positive", low, tr.State())
	}
	observeN(tr, Signals{QueueFrac: 1}, 100)
	high := tr.ShedFrac()
	if high <= low || high < 0.9 {
		t.Fatalf("full-pressure shed frac = %v, want near 1 (was %v)", high, low)
	}
}

// TestForceWedged: the supervisor's restart-budget breaker pins wedged
// exactly like the stall breaker.
func TestForceWedged(t *testing.T) {
	tr := New(0)
	tr.ForceWedged()
	if tr.State() != Wedged || !tr.BreakerTripped() {
		t.Fatalf("state = %v tripped = %v, want wedged/true", tr.State(), tr.BreakerTripped())
	}
	tr.NoteProgress()
	if st := observeN(tr, Signals{}, 50); st != Healthy {
		t.Fatalf("state after release = %v, want healthy", st)
	}
}

// TestStallThreshold: a backlogged heartbeat scores as stale in proportion
// to the threshold New was given, and New(0) selects defaultStallThreshold.
func TestStallThreshold(t *testing.T) {
	half := Signals{HeartbeatAge: defaultStallThreshold / 2, Backlogged: true}
	if got := New(0).score(half); got != 0.5 {
		t.Fatalf("score at half the default threshold = %v, want 0.5", got)
	}
	if got := New(defaultStallThreshold / 4).score(half); got != 1 {
		t.Fatalf("score at twice a watchdog's threshold = %v, want 1", got)
	}
}

// TestStateJSONRoundTrip: the lowercase name form survives a marshal →
// unmarshal cycle (control-plane clients parse /api/health payloads).
func TestStateJSONRoundTrip(t *testing.T) {
	for _, s := range []State{Healthy, Degraded, Overloaded, Wedged} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got State
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("round trip %v → %s → %v", s, b, got)
		}
	}
	var bad State
	if err := json.Unmarshal([]byte(`"melting"`), &bad); err == nil {
		t.Fatal("unknown state name unmarshalled without error")
	}
}
