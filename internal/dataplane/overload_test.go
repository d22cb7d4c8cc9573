package dataplane

import (
	"errors"
	"testing"
	"time"

	"hpfq/internal/faultconn"
	"hpfq/internal/obs"
	"hpfq/internal/overload"
	"hpfq/internal/wallclock"
)

// TestOverloadRampShedsByShare: a seeded 2× overload ramp against three
// classes with 1:2:7 guaranteed shares. The controller must concentrate the
// pain in the low-share classes — shedding engages bottom-up, the top-share
// class is never shed, and it keeps at least 95% of its guaranteed rate
// end to end.
func TestOverloadRampShedsByShare(t *testing.T) {
	const (
		rate  = 1e6  // bits/sec link
		size  = 250  // bytes → 2000 bits per datagram
		steps = 1000 // 10 virtual seconds
		step  = 10 * time.Millisecond
	)
	clk := wallclock.NewFake()
	// Burst must cover one full clock step: the fake clock advances in
	// 10 ms jumps, and a smaller token bucket would clip the link below
	// its configured rate.
	d, err := New("WF2Q+", rate, WithClock(clk), WithMetrics(),
		WithQueueCap(32), WithBurst(rate*step.Seconds()), WithOverload())
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range map[int]float64{0: 1e5, 1: 2e5, 2: 7e5} {
		if err := d.AddClass(id, r); err != nil {
			t.Fatal(err)
		}
	}
	pipe := NewPipe(256)
	out := collectFrom(pipe)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}

	// Offer every class 2× its guaranteed rate: per 10 ms step, 1/2/7
	// datagrams of 2000 bits for classes 0/1/2 — 20 kbit against a 10 kbit
	// drain.
	offered := map[int]int{}
	shedRefusals := map[int]int{}
	sawDegraded := false
	for i := 0; i < steps; i++ {
		clk.Advance(step)
		settle(t, d)
		for class, n := range map[int]int{0: 1, 1: 2, 2: 7} {
			for j := 0; j < n; j++ {
				offered[class]++
				err := d.Ingest(class, mkPayload(class, j, size))
				if errors.Is(err, ErrShedding) {
					shedRefusals[class]++
				}
			}
		}
		settle(t, d)
		if d.HealthState() >= overload.Degraded {
			sawDegraded = true
		}
	}

	if !sawDegraded {
		t.Fatal("2x overload never drove the controller past healthy")
	}
	h := d.Health()
	if !h.Enabled || h.State < overload.Degraded {
		t.Fatalf("health under sustained 2x load = %+v, want >= degraded", h)
	}
	for _, id := range h.Shedding {
		if id == 2 {
			t.Fatal("top-share class 2 was shed; the derived order must spare it")
		}
	}
	if shedRefusals[2] != 0 {
		t.Fatalf("class 2 saw %d shed refusals, want 0", shedRefusals[2])
	}
	if shedRefusals[0] == 0 || shedRefusals[1] == 0 {
		t.Fatalf("low-share classes saw no shedding: %v", shedRefusals)
	}

	closeDraining(t, d, clk)
	pipe.Close()
	<-out.done

	// Delivered bits per class from the egress stream.
	delivered := map[int]float64{}
	for _, class := range out.classes() {
		delivered[class] += size * 8
	}
	elapsed := (time.Duration(steps) * step).Seconds()
	guarantee := 7e5 * elapsed
	if delivered[2] < 0.95*guarantee {
		t.Fatalf("top-share class delivered %.0f bits, want >= 95%% of its %.0f-bit guarantee",
			delivered[2], guarantee)
	}
	// Drops concentrate in the low-share classes: their delivered fraction
	// must be well below the top class's.
	fracTop := delivered[2] / (float64(offered[2]) * size * 8)
	fracLow := delivered[0] / (float64(offered[0]) * size * 8)
	if fracLow >= fracTop {
		t.Fatalf("delivered fractions inverted: low-share %.2f vs top-share %.2f", fracLow, fracTop)
	}

	m := d.Snapshot()
	if m.Shed.Packets == 0 {
		t.Fatal("no shed drops recorded in the metrics")
	}
	if m.ShedReasons[obs.ShedPressure].Packets != m.Shed.Packets {
		t.Fatalf("shed cause breakdown %v does not match Shed %v", m.ShedReasons, m.Shed)
	}
	if m.DropReasons[obs.DropShed].Packets != m.Shed.Packets {
		t.Fatalf("shed drops missing from DropReasons: %v vs %v",
			m.DropReasons[obs.DropShed], m.Shed)
	}
}

// TestBrownoutFlapLosesNoSurvivors: pressure oscillating across the
// brownout boundary several times must not lose a single accepted datagram
// — every Ingest that returned nil is delivered. Run under -race this also
// exercises the monitor/pump/ingest interleavings.
func TestBrownoutFlapLosesNoSurvivors(t *testing.T) {
	clk := wallclock.NewFake()
	tracer := obs.NewRingTracer(64)
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics(), WithTracer(tracer),
		WithQueueCap(16), WithOverload())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	pipe := NewPipe(1024)
	out := collectFrom(pipe)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}

	sentOK := 0
	for flap := 0; flap < 3; flap++ {
		// Ramp: keep the staging queue pinned at its cap until the tracker
		// browns out.
		advanceUntil(t, d, clk, 5*time.Millisecond, func() bool {
			for {
				if err := d.Ingest(0, mkPayload(0, sentOK, 250)); err != nil {
					break
				}
				sentOK++
			}
			return d.HealthState() >= overload.Overloaded
		})
		// Recover: stop offering, let the backlog drain and pressure decay.
		advanceUntil(t, d, clk, 5*time.Millisecond, func() bool {
			return d.Backlog() == 0 && d.HealthState() == overload.Healthy
		})
	}

	h := d.Health()
	if h.BrownoutTransitions < 2 {
		t.Fatalf("brownout transitions = %d after 3 flaps, want >= 2", h.BrownoutTransitions)
	}

	closeDraining(t, d, clk)
	pipe.Close()
	<-out.done
	if got := out.count(); got != sentOK {
		t.Fatalf("accepted %d datagrams but delivered %d — survivors were lost", sentOK, got)
	}
	m := d.Snapshot()
	if m.Enqueued.Packets != m.Dequeued.Packets {
		t.Fatalf("conservation broken: enqueued %d, dequeued %d",
			m.Enqueued.Packets, m.Dequeued.Packets)
	}
}

// TestWatchdogStallTripsBreaker: a writer that blocks forever (the failure
// mode retries cannot see) is detected by the heartbeat watchdog, the
// blocked write is interrupted with a write deadline, and consecutive
// stalls trip the circuit breaker to wedged — the pump fails fast instead
// of hanging, and Close still drains.
func TestWatchdogStallTripsBreaker(t *testing.T) {
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics(),
		WithBurst(4000), // small releases so staged work remains visible
		WithWatchdog(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	for i := 0; i < 50; i++ {
		if err := d.Ingest(0, mkPayload(0, i, 250)); err != nil {
			t.Fatal(err)
		}
	}
	pipe := NewPipe(256)
	// Every write blocks until the watchdog's deadline interrupts it.
	fw := &faultWriter{Writer: faultconn.NewWriter(pipe, faultconn.WithStall(0, 0)), stalls: true}
	if err := d.Start(fw); err != nil {
		t.Fatal(err)
	}

	advanceUntil(t, d, clk, 25*time.Millisecond, func() bool {
		return d.HealthState() == overload.Wedged
	})
	h := d.Health()
	if h.State != overload.Wedged {
		t.Fatalf("state = %v, want wedged", h.State)
	}
	if h.WatchdogStalls < overload.StallBreaker {
		t.Fatalf("watchdog stalls = %d, want >= StallBreaker (%d)", h.WatchdogStalls, overload.StallBreaker)
	}
	if st := fw.Stats(); st.Stalls == 0 {
		t.Fatal("the writer never entered a stall — the test exercised nothing")
	}

	// Wedged fails fast: the staged backlog burns down through the retry
	// budget (transient StallErrors against a pinned past deadline) instead
	// of hanging Close forever.
	closeDraining(t, d, clk)
	m := d.Snapshot()
	if m.Dropped.Packets == 0 {
		t.Fatal("wedged drain recorded no drops")
	}
	pipe.Close()
}

// stormWriter panics on every write — a poisoned egress path no restart
// can outrun.
type stormWriter struct{}

func (stormWriter) WriteBatch([]Datagram) (int, error) { panic("poisoned egress") }

// TestRestartStormForcesWedged: a pump that panics on every iteration
// exceeds the supervisor's restart budget and trips the breaker to wedged
// instead of hot-looping (the backoff caps the restart rate either way).
func TestRestartStormForcesWedged(t *testing.T) {
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics(), WithOverload())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	for i := 0; i < overload.RestartBreaker; i++ {
		if err := d.Ingest(0, mkPayload(0, i, 250)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(stormWriter{}); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, 5*time.Millisecond, func() bool {
		return d.HealthState() == overload.Wedged
	})
	if !d.Health().Enabled {
		t.Fatal("health should report the subsystem enabled")
	}
	if got := d.Status().Restarts; got < overload.RestartBreaker {
		t.Fatalf("restarts = %d, want >= RestartBreaker (%d)", got, overload.RestartBreaker)
	}
	closeDraining(t, d, clk)
}

// TestHealthWithoutOverload: an engine built without WithOverload still
// reports liveness — healthy state, restart count, heartbeat age — and
// HealthState stays healthy at zero cost.
func TestHealthWithoutOverload(t *testing.T) {
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	h := d.Health()
	if h.Enabled || h.State != overload.Healthy {
		t.Fatalf("health without overload = %+v, want disabled healthy", h)
	}
	if d.HealthState() != overload.Healthy {
		t.Fatalf("HealthState = %v, want healthy", d.HealthState())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
