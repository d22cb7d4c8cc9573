package ctl

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/overload"
	"hpfq/internal/wallclock"
)

// advance drives the fake clock until cond holds or a real-time deadline
// expires (the engine's pump and monitor run concurrently, so cond must be
// one the engine reaches however far the clock runs ahead of them).
func advance(t *testing.T, clk *wallclock.Fake, step time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached while advancing the fake clock")
		}
		clk.Advance(step)
		time.Sleep(50 * time.Microsecond)
	}
}

// TestHealthzFlipsUnderOverload: /healthz answers 200 while healthy, flips
// to 503 once the engine browns out, and recovers to 200 when pressure
// recedes — with /api/health serving the full JSON report at each stage.
func TestHealthzFlipsUnderOverload(t *testing.T) {
	clk := wallclock.NewFake()
	// A link slow enough that four staged datagrams pin the queue at its
	// cap for several virtual seconds.
	d, err := dataplane.New("WF2Q+", 1e3, dataplane.WithClock(clk),
		dataplane.WithMetrics(), dataplane.WithQueueCap(4),
		dataplane.WithOverload())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e3)
	s := New(d)

	if rec := get(t, s, "/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz before load: %d %q", rec.Code, rec.Body.String())
	}
	rec := get(t, s, "/api/health")
	var h dataplane.HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || !h.Enabled || h.State != overload.Healthy {
		t.Fatalf("/api/health before load: %d %+v", rec.Code, h)
	}

	// Pin the staging queue at its cap and let the monitor observe it.
	payload := make([]byte, 250)
	for i := 0; i < 4; i++ {
		if err := d.Ingest(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	pipe := dataplane.NewPipe(64)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	defer func() {
		done := make(chan struct{})
		go func() { d.Close(); close(done) }()
		advance(t, clk, 100*time.Millisecond, func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		})
		pipe.Close()
	}()

	// Refill the queue at every step, so the ramp does not race the drain
	// however the host schedules the pump and the monitor.
	advance(t, clk, 5*time.Millisecond, func() bool {
		for d.Ingest(0, payload) == nil {
		}
		return d.HealthState() >= overload.Overloaded
	})
	if rec := get(t, s, "/healthz"); rec.Code != 503 ||
		!strings.Contains(rec.Body.String(), "overloaded") ||
		!strings.Contains(rec.Body.String(), "pressure=") {
		t.Fatalf("/healthz under overload: %d %q", rec.Code, rec.Body.String())
	}
	rec = get(t, s, "/api/health")
	h = dataplane.HealthStatus{}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 503 || h.State < overload.Overloaded || h.Pressure <= 0 {
		t.Fatalf("/api/health under overload: %d %+v", rec.Code, h)
	}
	if rec := get(t, s, "/status"); !strings.Contains(rec.Body.String(), "health:") {
		t.Fatalf("/status missing the health line: %q", rec.Body.String())
	}

	// Recovery: the pacer drains the backlog, pressure decays through the
	// exit hysteresis, and /healthz flips back to 200.
	advance(t, clk, 100*time.Millisecond, func() bool {
		return d.Backlog() == 0 && d.HealthState() == overload.Healthy
	})
	if rec := get(t, s, "/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz after recovery: %d %q", rec.Code, rec.Body.String())
	}
}

// TestHealthzLivenessWithoutOverload: an engine without overload control
// still reports restart count and heartbeat age on /healthz.
func TestHealthzLivenessWithoutOverload(t *testing.T) {
	s := New(flatEngine(t))
	rec := get(t, s, "/healthz")
	body := rec.Body.String()
	if rec.Code != 200 || !strings.Contains(body, "restarts=0") || !strings.Contains(body, "heartbeat_age=") {
		t.Fatalf("/healthz liveness report: %d %q", rec.Code, body)
	}
	rec = get(t, s, "/api/health")
	var h dataplane.HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || h.Enabled || h.State != overload.Healthy {
		t.Fatalf("/api/health without overload: %d %+v", rec.Code, h)
	}
}
