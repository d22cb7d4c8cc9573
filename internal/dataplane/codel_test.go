package dataplane

import (
	"testing"
	"time"

	"hpfq/internal/obs"
	"hpfq/internal/wallclock"
)

// TestCoDelBelowTargetNeverDrops: a queue draining within the sojourn
// budget is left alone, however long it runs.
func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	c := newCodel(5*time.Millisecond, 100*time.Millisecond)
	for i := 0; i < 10000; i++ {
		now := float64(i) * 1e-3
		if c.onDequeue(now, 0.004) {
			t.Fatalf("dropped at i=%d with sojourn below target", i)
		}
	}
}

// TestCoDelDropsAfterInterval: a standing queue is tolerated for one full
// interval, then shed with accelerating frequency.
func TestCoDelDropsAfterInterval(t *testing.T) {
	const (
		target   = 5 * time.Millisecond
		interval = 100 * time.Millisecond
		step     = 1e-3
	)
	c := newCodel(target, interval)
	firstDrop := -1.0
	var drops []float64
	for i := 0; i < 1000; i++ {
		now := float64(i) * step
		if c.onDequeue(now, 0.050) { // sojourn pinned 10x above target
			if firstDrop < 0 {
				firstDrop = now
			}
			drops = append(drops, now)
		}
	}
	if firstDrop < 0 {
		t.Fatal("standing queue never shed")
	}
	if firstDrop < interval.Seconds() {
		t.Errorf("first drop at %.3fs, before the %.1fs grace interval", firstDrop, interval.Seconds())
	}
	if len(drops) < 3 {
		t.Fatalf("only %d drops in 1s of standing queue", len(drops))
	}
	// The control law shrinks the inter-drop gap as 1/sqrt(count).
	if g1, g2 := drops[1]-drops[0], drops[len(drops)-1]-drops[len(drops)-2]; g2 >= g1 {
		t.Errorf("drop gaps not accelerating: first %.3fs, last %.3fs", g1, g2)
	}
}

// TestCoDelRecovers: once the sojourn falls back under target the dropping
// state ends, and a fresh standing queue gets a fresh grace interval.
func TestCoDelRecovers(t *testing.T) {
	c := newCodel(5*time.Millisecond, 50*time.Millisecond)
	now := 0.0
	dropped := 0
	for i := 0; i < 200; i++ { // drive into the dropping state
		now += 1e-3
		if c.onDequeue(now, 0.050) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("never entered the dropping state")
	}
	if c.onDequeue(now+1e-3, 0.001) {
		t.Error("dropped a packet with sojourn back under target")
	}
	if c.dropping || c.hasAbove {
		t.Error("state not reset after recovery")
	}
	// Back above target: no drop before a fresh interval elapses.
	now += 2e-3
	if c.onDequeue(now, 0.050) {
		t.Error("dropped without a fresh grace interval")
	}
}

// TestAQMShedsOverloadedClass runs CoDel end-to-end through the engine: an
// overloaded class gets shed (reason "codel") while a class inside its
// guaranteed rate is untouched, and the counters stay conserved.
func TestAQMShedsOverloadedClass(t *testing.T) {
	const (
		rate = 1e6 // 1 Mbps link: one 125-byte datagram per ms
		size = 125
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", rate, WithClock(clk), WithMetrics(), WithAQM())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 0.75e6)
	d.AddClass(1, 0.25e6)
	w := &countWriter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	// Class 0 offers 2 Mbps against a 0.75 Mbps share (standing queue);
	// class 1 offers 0.25 Mbps, exactly its 0.25 Mbps share (no standing queue).
	for i := 0; i < 400; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			if err := d.Ingest(1, mkPayload(1, i, size)); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, d)
		clk.Advance(500 * time.Microsecond)
		settle(t, d)
	}
	closeDraining(t, d, clk)

	m := d.Snapshot()
	if m.DropReasons[obs.DropCoDel].Packets == 0 {
		t.Fatalf("overloaded class never shed by the AQM: %+v", m.DropReasons)
	}
	s1, _ := m.Session(1)
	if s1.Dropped.Packets != 0 {
		t.Errorf("in-profile class lost %d packets to the AQM", s1.Dropped.Packets)
	}
	if !m.Conserved() {
		t.Error("metrics not conserved with AQM drops")
	}
	// Everything the writer saw plus everything shed accounts for every
	// dequeued packet (AQM drops are post-dequeue).
	if got := w.packets.Load() + m.DropReasons[obs.DropCoDel].Packets; got != m.Dequeued.Packets {
		t.Errorf("written %d + codel-shed %d != dequeued %d",
			w.packets.Load(), m.DropReasons[obs.DropCoDel].Packets, m.Dequeued.Packets)
	}
}
