package dataplane

// Overload control: the engine-side wiring of internal/overload. A monitor
// goroutine (started by Start when WithOverload or WithWatchdog is given)
// samples pressure signals on the engine's clock — staging occupancy
// against the caps, buffer-pool misses, write-retry and restart rates, and
// the pump heartbeat — feeds them to an overload.Tracker, and applies the
// resulting health state back to the engine:
//
//   - degraded+: priority-aware load shedding. The classes at the front of
//     the shed order (repair classes first, then ascending guaranteed
//     rate) flip their shed flag and Ingest refuses their datagrams with
//     ErrShedding, recorded as drops with reason "shed". The class with
//     the highest guaranteed rate is never shed — the hierarchy's shares
//     say it deserves the capacity that remains.
//   - overloaded+: brownout. Expensive features switch off — FEC encoding
//     stops (source datagrams pass unprotected), tracing is suspended —
//     and the gateway additionally refuses *new* flows (see cmd/hpfqgw).
//     Both restore with the tracker's exit hysteresis.
//   - wedged: the pump watchdog's circuit breaker. When the heartbeat goes
//     stale with work queued, the watchdog records a stall and interrupts
//     the blocked write by applying a write deadline (any Writer with a
//     SetWriteDeadline method, e.g. the gateway's egress);
//     after StallBreaker consecutive stalls it trips to wedged and pins
//     the deadline so the writer fails fast instead of hanging the pump.
//     Successful deliveries (NoteProgress) release the breaker. The
//     supervisor's restart loop gets the same treatment: capped
//     exponential backoff between panic restarts and a restart-budget
//     breaker that forces wedged instead of hot-looping.

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"hpfq/internal/obs"
	"hpfq/internal/overload"
)

// ErrShedding is returned by Ingest when the overload controller is
// currently shedding the class (recorded with drop reason "shed").
var ErrShedding = errors.New("dataplane: class shedding under overload")

// Supervisor restart pacing: the first restart is immediate, later ones
// back off exponentially up to the cap; a pump that then survives
// restartResetAfter earns a fresh budget.
const (
	restartBackoffMin = 1 * time.Millisecond
	restartBackoffMax = 250 * time.Millisecond
	restartResetAfter = 1 * time.Second
)

// deadlineWriter is the optional Writer surface the watchdog uses to
// interrupt a blocked write; the gateway's egress implements it.
type deadlineWriter interface {
	SetWriteDeadline(t time.Time) error
}

// WithOverload enables the pressure-and-health subsystem. The monitor
// samples every overload.SampleInterval on the engine's clock.
func WithOverload() Option {
	return func(c *config) { c.ov = true }
}

// WithWatchdog arms the pump watchdog: when the heartbeat (stamped every
// pump iteration) goes older than timeout while work is queued, the
// watchdog records a stall, interrupts the blocked write with a write
// deadline, and — after overload.StallBreaker consecutive stalls — trips
// the circuit breaker to wedged. Implies WithOverload.
func WithWatchdog(timeout time.Duration) Option {
	return func(c *config) { c.watchdog = timeout }
}

// ovState is the engine-side overload state, grouped so Dataplane grows
// one field.
type ovState struct {
	tracker  *overload.Tracker
	watchdog time.Duration // 0: stall escalation off

	shedOrder []int // shed order (front sheds first)
	shedding  int   // prefix of shedOrder currently shedding

	brownout    bool
	savedTracer obs.Tracer // tracer suspended by brownout

	heartbeat atomic.Int64 // pump heartbeat, 1 + ns since epoch on the engine clock; 0 = never
	inflight  atomic.Int64 // datagrams in the current egress release; a
	// stalled writer holds work here with the staging queues possibly
	// empty, so the watchdog's Backlogged signal must include it

	writes    atomic.Int64 // datagrams delivered (retry-rate denominator)
	retries   atomic.Int64 // transient write retries (numerator)
	prevWr    int64        // previous sample's writes
	prevRt    int64        // previous sample's retries
	prevGets  int64        // previous sample's pool gets
	prevAlloc int64        // previous sample's pool allocs
	prevRst   int          // previous sample's restart count

	// armed is the monitor's count of sampling timers set, and sampled the
	// count that have fired: a test on a fake clock knows the monitor
	// waits for the clock while they differ.
	armed, sampled atomic.Int64

	deadlined bool          // write deadline currently applied
	monStop   chan struct{} // closes to stop the monitor
	monDone   chan struct{} // closed when the monitor exits
}

// overloadEnabled reports whether the monitor subsystem is configured.
func (d *Dataplane) overloadEnabled() bool { return d.ov.tracker != nil }

// initOverload resolves the overload/watchdog options at construction.
func (d *Dataplane) initOverload(cfg *config) {
	if !cfg.ov && cfg.watchdog <= 0 {
		return
	}
	if cfg.watchdog > 0 {
		d.ov.watchdog = cfg.watchdog
	}
	d.ov.tracker = overload.New(d.ov.watchdog)
	d.ov.monStop = make(chan struct{})
	d.ov.monDone = make(chan struct{})
}

// beat stamps the pump heartbeat.
func (d *Dataplane) beat() { d.beatAt(d.clock.Since(d.epoch)) }

// beatAt stamps the pump heartbeat at t since the epoch. The stored value
// is offset by one so that a beat at the epoch itself — the first beat on a
// fake clock that has not moved yet — is not mistaken for "never stamped",
// which would hide a pump that stalls right after it.
func (d *Dataplane) beatAt(t time.Duration) {
	d.ov.heartbeat.Store(t.Nanoseconds() + 1)
}

// heartbeatAge returns the time since the pump last stamped its heartbeat
// (0 before Start).
func (d *Dataplane) heartbeatAge() time.Duration {
	hb := d.ov.heartbeat.Load()
	if hb == 0 {
		return 0
	}
	return time.Duration(d.clock.Since(d.epoch).Nanoseconds() - (hb - 1))
}

// rebuildShedOrderLocked recomputes the shed order after any class or rate
// mutation: FEC repair classes first (redundancy is the first luxury to
// go), then ascending leaf rate. Caller holds both locks or owns d.
func (d *Dataplane) rebuildShedOrderLocked() {
	if !d.overloadEnabled() {
		return
	}
	order := d.ov.shedOrder[:0]
	for s := range d.classes {
		if id := d.classes[s].id; id >= 0 {
			order = append(order, int(id))
		}
	}
	// Repair classes shed before protected ones; within each group,
	// lowest guaranteed rate first; ties break on id for determinism.
	sort.Slice(order, func(i, j int) bool {
		a, _ := d.classLocked(order[i])
		b, _ := d.classLocked(order[j])
		if ra, rb := a.repairOf >= 0, b.repairOf >= 0; ra != rb {
			return ra
		}
		if ra, rb := a.leaf.Rate(), b.leaf.Rate(); ra != rb {
			return ra < rb
		}
		return a.id < b.id
	})
	d.ov.shedOrder = order
	d.applyShedLocked()
}

// maxShedLocked bounds how many classes may shed: the order always spares
// its last (highest-share) class.
func (d *Dataplane) maxShedLocked() int {
	return max(len(d.ov.shedOrder)-1, 0)
}

// applyShedLocked flips per-class shed flags so exactly the first
// d.ov.shedding classes of the shed order refuse intake. Caller holds d.mu.
func (d *Dataplane) applyShedLocked() {
	if max := d.maxShedLocked(); d.ov.shedding > max {
		d.ov.shedding = max
	}
	for i, id := range d.ov.shedOrder {
		// Only a flip writes the class's admission line: the sampler runs
		// this every sample, and Ingest reads the line on every datagram.
		if cs, _ := d.classLocked(id); cs != nil && cs.shed != (i < d.ov.shedding) {
			cs.shed = i < d.ov.shedding
		}
	}
}

// startMonitor launches the sampling goroutine (called by Start under
// d.mu).
func (d *Dataplane) startMonitor() {
	d.beat()
	go d.monitor()
}

// monitor is the sampling loop: every overload.SampleInterval on the
// engine's clock it gathers signals, advances the tracker, and applies the
// health state to the engine. It exits when Close signals monStop.
func (d *Dataplane) monitor() {
	defer close(d.ov.monDone)
	for n := int64(1); ; n++ {
		t := make(chan struct{})
		d.clock.AfterFunc(overload.SampleInterval, func() {
			d.ov.sampled.Store(n)
			close(t)
		})
		d.ov.armed.Store(n)
		select {
		case <-t:
		case <-d.ov.monStop:
			return
		}
		d.sampleOnce()
	}
}

// sampleOnce gathers one Signals sample, runs the tracker, and applies the
// resulting state (shed flags, brownout, watchdog escalation).
func (d *Dataplane) sampleOnce() {
	tr := d.ov.tracker

	d.mu.Lock()
	var sig overload.Signals
	for s := range d.classes {
		if d.classes[s].id < 0 {
			continue
		}
		packets, bytes := d.queuedLocked(int32(s))
		if d.capPkts > 0 {
			if f := float64(packets) / float64(d.capPkts); f > sig.QueueFrac {
				sig.QueueFrac = f
			}
		}
		if d.capBytes > 0 {
			if f := float64(bytes) / float64(d.capBytes); f > sig.ByteFrac {
				sig.ByteFrac = f
			}
		}
	}
	sig.Backlogged = d.backlogLocked() > 0 || d.ov.inflight.Load() > 0
	wr, rt := d.ov.writes.Load(), d.ov.retries.Load()
	if dw, dr := wr-d.ov.prevWr, rt-d.ov.prevRt; dw+dr > 0 {
		sig.RetryFrac = float64(dr) / float64(dw+dr)
	}
	d.ov.prevWr, d.ov.prevRt = wr, rt
	if d.pool != nil {
		ps := d.pool.Stats()
		if dg := ps.Gets - d.ov.prevGets; dg > 0 {
			sig.PoolMissFrac = float64(ps.Allocs-d.ov.prevAlloc) / float64(dg)
		}
		d.ov.prevGets, d.ov.prevAlloc = ps.Gets, ps.Allocs
	}
	if dr := d.restarts - d.ov.prevRst; dr > 0 {
		sig.RestartRate = float64(dr) / overload.SampleInterval.Seconds()
	}
	d.ov.prevRst = d.restarts
	d.mu.Unlock()

	sig.HeartbeatAge = d.heartbeatAge()

	// Watchdog: a stale heartbeat with work queued is a stalled pump.
	stalled := d.ov.watchdog > 0 && sig.Backlogged && sig.HeartbeatAge > d.ov.watchdog
	if stalled {
		d.smu.Lock()
		d.tree.RecordWatchdogStall()
		d.smu.Unlock()
		tr.NoteStall()
		if dl, ok := d.bw.(deadlineWriter); ok {
			// Interrupt the blocked write; while the breaker is tripped the
			// deadline stays pinned in the past so the writer fails fast.
			dl.SetWriteDeadline(time.Now())
			d.ov.deadlined = true
		}
	} else if d.ov.deadlined && !tr.BreakerTripped() {
		if dl, ok := d.bw.(deadlineWriter); ok {
			dl.SetWriteDeadline(time.Time{})
		}
		d.ov.deadlined = false
	}

	state := tr.Observe(sig)
	frac := tr.ShedFrac()

	d.lock()
	d.applyHealthLocked(state, frac)
	d.unlock()
}

// applyHealthLocked translates the tracker's verdict into engine behavior:
// the shed prefix of the shed order and the brownout switches. Caller
// holds d.mu and d.smu.
func (d *Dataplane) applyHealthLocked(state overload.State, frac float64) {
	max := d.maxShedLocked()
	want := 0
	if frac > 0 && max > 0 {
		want = int(frac*float64(max) + 0.999999) // ceil: degraded sheds at least one
		if want > max {
			want = max
		}
	}
	d.ov.shedding = want
	d.applyShedLocked()

	brown := state >= overload.Overloaded
	if brown != d.ov.brownout {
		d.ov.brownout = brown
		d.tree.RecordBrownoutTransition()
		if brown {
			d.ov.savedTracer = d.tracer
			d.tree.SetTracer(nil)
		} else {
			d.tree.SetTracer(d.ov.savedTracer)
			d.ov.savedTracer = nil
		}
	}
}

// stopMonitor signals the monitor to exit and waits for it (called by
// Close, off the engine lock).
func (d *Dataplane) stopMonitor() {
	if !d.overloadEnabled() {
		return
	}
	select {
	case <-d.ov.monStop:
	default:
		close(d.ov.monStop)
	}
	<-d.ov.monDone
}

// monitorSettled is Settled's verdict on the overload monitor: true when
// none runs, or it waits for a sampling timer that has not fired.
func (d *Dataplane) monitorSettled() bool {
	if !d.overloadEnabled() {
		return true
	}
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	select {
	case <-d.ov.monDone:
		return true
	default:
	}
	armed := d.ov.armed.Load()
	return !started || armed != 0 && armed != d.ov.sampled.Load()
}

// HealthState returns the current health state without touching the
// engine lock — cheap enough for per-datagram admission checks (the
// gateway's brownout gate). Healthy when overload control is off.
func (d *Dataplane) HealthState() overload.State {
	if !d.overloadEnabled() {
		return overload.Healthy
	}
	return d.ov.tracker.State()
}

// HealthStatus is the detailed liveness and pressure report behind
// hpfq.Health(), /healthz, and GET /api/health.
type HealthStatus struct {
	State    overload.State // healthy | degraded | overloaded | wedged
	Enabled  bool           // overload control configured
	Pressure float64        // smoothed pressure score in [0,1]

	Signals overload.Signals // last raw sample (zero when disabled)

	Restarts     int           // pump panic-recoveries
	HeartbeatAge time.Duration // time since the pump last stamped progress

	WatchdogStalls      uint64
	BrownoutTransitions uint64

	Brownout bool  // expensive features currently disabled
	Shedding []int // class ids currently refusing intake, sorted
}

// Health snapshots the engine's health. Without WithOverload/WithWatchdog
// it still reports liveness (restarts, heartbeat age) with state healthy.
func (d *Dataplane) Health() HealthStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.healthLocked()
}

// healthLocked builds the HealthStatus; caller holds d.mu.
func (d *Dataplane) healthLocked() HealthStatus {
	h := HealthStatus{
		State:        overload.Healthy,
		Restarts:     d.restarts,
		HeartbeatAge: d.heartbeatAge(),
	}
	tr := d.ov.tracker
	if tr == nil {
		return h
	}
	h.Enabled = true
	h.State = tr.State()
	h.Pressure = tr.Pressure()
	h.Signals = tr.Last()
	h.WatchdogStalls = tr.Stalls()
	h.BrownoutTransitions = tr.BrownoutTransitions()
	h.Brownout = d.ov.brownout
	if d.ov.shedding > 0 {
		h.Shedding = append(h.Shedding, d.ov.shedOrder[:d.ov.shedding]...)
		sort.Ints(h.Shedding)
	}
	return h
}

// RecordShed accounts a shed the caller performed on the engine's behalf —
// the gateway's brownout refusal of a new flow, for example — as a drop
// with reason "shed" under the given cause (obs.ShedBrownout, …).
func (d *Dataplane) RecordShed(class int, size int, cause string) {
	now := d.now()
	d.smu.Lock()
	d.tree.RecordShed(now, class, float64(size)*8, cause)
	d.smu.Unlock()
}
