package dataplane

import (
	"testing"
	"time"

	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// htbElapsed runs a prefilled engine to completion on the fake clock and
// returns the virtual time the drain took — the token buckets make the
// lower bound exact physics (a class can never beat its admission rate plus
// one burst), so elapsed time is the cleanest throughput probe.
func htbElapsed(t *testing.T, d *Dataplane, clk *wallclock.Fake, w *classCountWriter, class int, want int64) time.Duration {
	t.Helper()
	start := clk.Now()
	advanceUntil(t, clk, 2*time.Millisecond, func() bool { return w.count(class) >= want })
	return clk.Now().Sub(start)
}

// TestCeilCapsThroughput: a class with the link to itself may borrow only up
// to its ceiling. Class 0 is guaranteed 1 Mbit/s with a 3 Mbit/s ceil on a
// 10 Mbit/s link; draining 1 Mbit of backlog must take roughly 1e6/3e6 s —
// far slower than an uncapped borrower (0.1 s) and far faster than its bare
// guarantee (1 s).
func TestCeilCapsThroughput(t *testing.T) {
	const (
		size = 1250 // bytes → 10000 bits
		n    = 100  // 1e6 bits total
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 10e6, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	d.AddClass(1, 5e6) // idle: its bandwidth is there to borrow
	if err := d.SetCeil(0, 3e6); err != nil {
		t.Fatal(err)
	}
	if !d.Status().Borrowing {
		t.Fatal("ceil did not enable borrowing")
	}
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	elapsed := htbElapsed(t, d, clk, w, 0, n)
	// 1e6 bits at the 3e6 ceil ≈ 333 ms, minus one ceil burst, plus pacing
	// slack. Uncapped borrowing would land near 100 ms, the bare guarantee
	// near 1 s.
	if elapsed < 200*time.Millisecond || elapsed > 600*time.Millisecond {
		t.Fatalf("capped drain took %v, want ~333ms (ceil 3e6 obeyed)", elapsed)
	}
	closeDraining(t, d, clk)
	if m := d.Snapshot(); m.Dropped.Packets != 0 || m.Dequeued.Packets != n {
		t.Fatalf("conservation: dequeued %d dropped %d, want %d/0", m.Dequeued.Packets, m.Dropped.Packets, n)
	}
}

// TestBorrowingLendsAndReclaims: with no ceilings the engine is
// work-conserving, so an idle sibling's capacity is lent — a 1 Mbit/s class
// alone drains at the link rate — and reclaimed: once the 9 Mbit/s sibling
// wakes up, WF²Q+ serves it at its guarantee at once, since a class that
// ran ahead of its share earns no debt to repay.
func TestBorrowingLendsAndReclaims(t *testing.T) {
	const (
		size = 1250 // bytes → 10000 bits
		n    = 100  // 1e6 bits
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 10e6, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	d.AddClass(1, 9e6)
	w := newClassCountWriter()

	// Phase 1 — lending: only class 0 backlogged. Its guarantee alone would
	// need 1 s for 1e6 bits; borrowing the idle sibling's tokens it must
	// finish near the link rate (~100 ms).
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	if elapsed := htbElapsed(t, d, clk, w, 0, n); elapsed > 400*time.Millisecond {
		t.Fatalf("lone borrower drained in %v, want near the 10e6 link rate (~100ms)", elapsed)
	}

	// Phase 2 — reclaiming: both classes backlogged. Class 1 must get its
	// 9 Mbit/s guarantee back despite class 0's standing borrow debt:
	// 2e6 bits in ~222 ms plus the bounded repayment window.
	for i := 0; i < 2*n; i++ {
		if err := d.Ingest(1, mkPayload(1, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, mkPayload(0, n+i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := htbElapsed(t, d, clk, w, 1, 2*n); elapsed > 600*time.Millisecond {
		t.Fatalf("waking guarantee-holder drained 2e6 bits in %v, want ~222ms at its 9e6 guarantee", elapsed)
	}
	closeDraining(t, d, clk)
	if m := d.Snapshot(); m.Dropped.Packets != 0 || m.Dequeued.Packets != 4*n {
		t.Fatalf("conservation: dequeued %d dropped %d, want %d/0", m.Dequeued.Packets, m.Dropped.Packets, 4*n)
	}
}

// TestNodeCeilCapsSubtree: a '^ceil' clause on an interior topology node
// bounds its whole subtree even when both leaves borrow.
func TestNodeCeilCapsSubtree(t *testing.T) {
	const (
		size = 1250
		n    = 50 // 5e5 bits per class, 1e6 for the subtree
	)
	top, err := topo.Parse("root=1(agg=1^2e6(a=1:0,b=1:1),c=2:2)")
	if err != nil {
		t.Fatal(err)
	}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 12e6, WithClock(clk), WithTopology(top), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Status().Borrowing {
		t.Fatal("topology ceil did not enable borrowing")
	}
	for i := 0; i < n; i++ {
		d.Ingest(0, mkPayload(0, i, size))
		d.Ingest(1, mkPayload(1, i, size))
	}
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	advanceUntil(t, clk, 2*time.Millisecond, func() bool {
		return w.count(0) >= n && w.count(1) >= n
	})
	elapsed := clk.Now().Sub(start)
	// 1e6 bits through the 2e6 subtree ceiling ≈ 500 ms; without the node
	// cap the idle sibling c would lend up to the 12e6 link (~83 ms).
	if elapsed < 300*time.Millisecond || elapsed > 900*time.Millisecond {
		t.Fatalf("subtree drained in %v, want ~500ms under the 2e6 node ceil", elapsed)
	}
	closeDraining(t, d, clk)
}

// TestSetCeilLive flips a ceiling on a running engine and checks the cap
// takes effect mid-stream and lifts again.
func TestSetCeilLive(t *testing.T) {
	const (
		size = 1250
		n    = 100
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 10e6, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 5e6)
	d.AddClass(1, 5e6)
	if d.Status().Borrowing {
		t.Fatal("borrowing on without any ceil")
	}
	if err := d.SetCeil(0, 2e6); err != nil {
		t.Fatal(err)
	}
	if err := d.SetCeil(9, 1e6); err == nil {
		t.Fatal("SetCeil on unknown class accepted")
	}
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	// 1e6 bits at the 2e6 ceil ≈ 500 ms (the guarantee 5e6 would need only
	// 200 ms — the ceil must bind below the guarantee too).
	if elapsed := htbElapsed(t, d, clk, w, 0, n); elapsed < 300*time.Millisecond {
		t.Fatalf("drain took %v, live ceil 2e6 not enforced", elapsed)
	}
	if st := d.Status(); st.Classes[0].Ceil != 2e6 {
		t.Fatalf("Status ceil = %g, want 2e6", st.Classes[0].Ceil)
	}
	// Lift the cap; the next megabit should move at the guarantee or better.
	if err := d.SetCeil(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, mkPayload(0, n+i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := htbElapsed(t, d, clk, w, 0, 2*n); elapsed > 400*time.Millisecond {
		t.Fatalf("drain took %v after lifting the ceil, want near 10e6", elapsed)
	}
	closeDraining(t, d, clk)
}

// BenchmarkReconfigUnderLoad measures one live SetRate against a pump
// under continuous load — the reconfiguration-latency figure for the
// control plane (see BENCH_dataplane.json).
func BenchmarkReconfigUnderLoad(b *testing.B) {
	pool := NewBufferPool(256)
	d, err := New("WF2Q+", 1e9, WithBurst(1e18), WithBufferPool(pool))
	if err != nil {
		b.Fatal(err)
	}
	d.AddClass(0, 6e8)
	d.AddClass(1, 3e8)
	pipe := NewPipePool(4096, pool)
	d.bw = AsBatchWriter(pipe) // driven inline; Start is never called
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 256)
		for {
			if _, err := pipe.ReadPacket(buf); err != nil {
				return
			}
		}
	}()
	last := d.clock.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			buf := pool.Get()[:100]
			buf[0] = byte(j & 1)
			if err := d.Ingest(int(buf[0]), buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.SetRate(0, 5e8+float64(i%8)*1e7); err != nil {
			b.Fatal(err)
		}
		d.collectBatch(1e18, &last)
		d.writeInflight()
	}
	b.StopTimer()
	pipe.Close()
	<-drained
}
