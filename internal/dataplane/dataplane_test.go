package dataplane

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"hpfq/internal/core"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// collect drains p in a background goroutine, recording each datagram's
// class byte (payload[0]) in arrival order.
type collect struct {
	mu   sync.Mutex
	seq  [][]byte
	done chan struct{}
}

func collectFrom(p *Pipe) *collect {
	c := &collect{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		buf := make([]byte, 64*1024)
		for {
			n, err := p.ReadPacket(buf)
			if err != nil {
				return
			}
			c.mu.Lock()
			c.seq = append(c.seq, append([]byte(nil), buf[:n]...))
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *collect) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seq)
}

func (c *collect) classes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.seq))
	for i, b := range c.seq {
		out[i] = int(b[0])
	}
	return out
}

// writeEach delivers pkts through w's WritePacket one datagram at a time,
// stopping at the first error: the WriteBatch of the tests' per-datagram
// writers.
func writeEach(w interface{ WritePacket([]byte) (int, error) }, pkts []Datagram) (int, error) {
	for i := range pkts {
		if _, err := w.WritePacket(pkts[i].B); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// settled is Settled, also counting as settled a pump blocked in a
// write through a stalling faultWriter, which only the watchdog ends.
func settled(d *Dataplane) bool {
	d.mu.Lock()
	w := d.bw
	d.mu.Unlock()
	if fw, ok := w.(*faultWriter); ok && fw.stalls && fw.writing.Load() {
		return d.monitorSettled()
	}
	return Settled(d)
}

// settle waits until the engine waits for the fake clock (settled): the
// pump is then credited every step's tokens and the monitor takes every
// sample. Ingest must not run concurrently (its nudge would wake the pump
// after the check).
func settle(t *testing.T, d *Dataplane) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !settled(d) {
		if time.Now().After(deadline) {
			t.Fatalf("engine did not catch up with the fake clock (pump %v, monitor %v)", d.pumpSettled(), d.monitorSettled())
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// advanceUntil steps the fake clock by step until cond holds or a real-time
// deadline expires, settling the engine around each step and each call of
// cond (which may ingest).
func advanceUntil(t *testing.T, d *Dataplane, clk *wallclock.Fake, step time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for settle(t, d); !cond(); settle(t, d) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached while advancing the fake clock")
		}
		settle(t, d)
		clk.Advance(step)
	}
}

// closeDraining closes d while stepping the fake clock, since Close blocks
// until the pacer has drained the staged backlog. Each step waits for the
// engine to settle, until Close returns.
func closeDraining(t *testing.T, d *Dataplane, clk *wallclock.Fake) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Close did not drain the backlog")
		}
		if settled(d) {
			clk.Advance(10 * time.Millisecond)
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// queued returns a class's staged datagrams and bytes, from Status.
func queued(d *Dataplane, class int) (packets, bytes int) {
	for _, c := range d.Status().Classes {
		if c.ID == class {
			return c.Queued, c.QueuedBytes
		}
	}
	return 0, 0
}

func mkPayload(class, seq, size int) []byte {
	b := make([]byte, size)
	b[0] = byte(class)
	b[1] = byte(seq)
	return b
}

// TestOrderingMatchesWF2QPlus: datagrams staged before the pump starts are
// released end-to-end through a pipe in exactly the order a reference WF²Q+
// scheduler serves the same arrival sequence.
func TestOrderingMatchesWF2QPlus(t *testing.T) {
	const (
		rate  = 3000.0
		size  = 125 // bytes → 1000 bits
		nFast = 6
		nSlow = 3
	)
	// Reference: the paper's scheduler over the identical arrival sequence.
	ref := core.NewScheduler(rate)
	ref.AddSession(0, 2000)
	ref.AddSession(1, 1000)

	clk := wallclock.NewFake()
	d, err := New("WF2Q+", rate, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 2000); err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(1, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFast; i++ {
		ref.Enqueue(0, packet.New(0, size*8))
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nSlow; i++ {
		ref.Enqueue(0, packet.New(1, size*8))
		if err := d.Ingest(1, mkPayload(1, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	var want []int
	for p := ref.Dequeue(0); p != nil; p = ref.Dequeue(0) {
		want = append(want, p.Session)
	}

	pipe := NewPipe(64)
	out := collectFrom(pipe)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, 100*time.Millisecond, func() bool { return out.count() >= nFast+nSlow })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	<-out.done

	got := out.classes()
	if len(got) != len(want) {
		t.Fatalf("released %d datagrams, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release order %v, want WF2Q+ reference order %v", got, want)
		}
	}
	// FIFO within each class.
	seq := map[int]int{}
	out.mu.Lock()
	defer out.mu.Unlock()
	for _, b := range out.seq {
		if int(b[1]) != seq[int(b[0])] {
			t.Fatalf("class %d released out of FIFO order", b[0])
		}
		seq[int(b[0])]++
	}
}

// TestThroughputShares is the acceptance check: two continuously backlogged
// classes with a 3:1 rate split share the paced egress 3:1 within 10%.
func TestThroughputShares(t *testing.T) {
	const (
		rate    = 10e6
		size    = 1250 // bytes → 10000 bits, one packet per ms at full rate
		prefill = 300
		measure = 200
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", rate, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 7.5e6)
	d.AddClass(1, 2.5e6)
	for i := 0; i < prefill; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(1, mkPayload(1, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	pipe := NewPipe(2 * prefill)
	out := collectFrom(pipe)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool { return out.count() >= measure })
	closeDraining(t, d, clk)
	pipe.Close()
	<-out.done

	// Both classes stayed backlogged through the first `measure` releases
	// (prefill > measure), so shares there must match the configured rates.
	counts := map[int]int{}
	for i, class := range out.classes() {
		if i >= measure {
			break
		}
		counts[class]++
	}
	share := float64(counts[0]) / float64(measure)
	if share < 0.75*0.9 || share > 0.75*1.1 {
		t.Errorf("class 0 share = %.3f (counts %v), want 0.75 ± 10%%", share, counts)
	}
}

// stampWriter records the fake-clock time of each datagram's release, keyed
// by class (payload[0]).
type stampWriter struct {
	clk *wallclock.Fake
	mu  sync.Mutex
	at  map[byte][]time.Duration
}

func (w *stampWriter) WritePacket(b []byte) (int, error) {
	w.mu.Lock()
	w.at[b[0]] = append(w.at[b[0]], w.clk.Elapsed())
	w.mu.Unlock()
	return len(b), nil
}

func (w *stampWriter) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

func (w *stampWriter) released(class byte) []time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Duration(nil), w.at[class]...)
}

// TestIsolationLatencyUnderFlood: a class sending within its guarantee is
// released within its own slot plus one datagram in service, however deep
// the other class's flood — WF²Q+ isolation on the wall-clock pacer, the
// property examples/shaping shows on the real clock.
func TestIsolationLatencyUnderFlood(t *testing.T) {
	const (
		rate  = 200e3
		size  = 125 // 1000 bits: 5 ms at the link rate, 20 ms at 50 kb/s
		bound = 25 * time.Millisecond
		step  = 500 * time.Microsecond
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", rate, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 150e3) // flooding
	d.AddClass(1, 50e3)  // interactive
	w := &stampWriter{clk: clk, at: map[byte][]time.Duration{}}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		advanceUntil(t, d, clk, step, func() bool { return clk.Elapsed() >= time.Duration(i+1)*50*time.Millisecond })
		sent := clk.Elapsed()
		if err := d.Ingest(1, mkPayload(1, i, size)); err != nil {
			t.Fatal(err)
		}
		advanceUntil(t, d, clk, step, func() bool { return len(w.released(1)) > i })
		if lat := w.released(1)[i] - sent; lat > bound {
			t.Errorf("interactive message %d released %v after it was sent under a flood, want <= %v", i, lat, bound)
		}
	}
	if n := len(w.released(0)); n >= 200 {
		t.Fatalf("flood drained (%d released) before the interactive messages were measured", n)
	}
	closeDraining(t, d, clk)
}

// TestDropPolicy: packet caps tail-drop, byte caps drop, both recorded in
// the snapshot with their reasons; closed intake records too.
func TestDropPolicy(t *testing.T) {
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithQueueCap(2), WithByteCap(3000), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 5e5)
	d.AddClass(1, 5e5)

	for i := 0; i < 2; i++ {
		if err := d.Ingest(0, mkPayload(0, i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Ingest(0, mkPayload(0, 2, 100)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over packet cap: %v, want ErrQueueFull", err)
	}
	if err := d.Ingest(1, mkPayload(1, 0, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(1, mkPayload(1, 1, 2000)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over byte cap: %v, want ErrQueueFull", err)
	}
	if err := d.Ingest(7, mkPayload(7, 0, 100)); !errors.Is(err, ErrNoClass) {
		t.Fatalf("unknown class: %v, want ErrNoClass", err)
	}

	if pkts, bytes := queued(d, 0); pkts != 2 || bytes != 200 {
		t.Errorf("class 0 staged %d pkts / %d bytes, want 2 / 200", pkts, bytes)
	}
	m := d.Snapshot()
	if m.DropReasons[obs.DropTail].Packets != 1 {
		t.Errorf("tail drops = %+v, want 1", m.DropReasons[obs.DropTail])
	}
	if m.DropReasons[obs.DropBytes].Packets != 1 {
		t.Errorf("byte-cap drops = %+v, want 1", m.DropReasons[obs.DropBytes])
	}
	if !m.Conserved() {
		t.Error("metrics not conserved")
	}

	d.Close()
	if err := d.Ingest(0, mkPayload(0, 9, 100)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	if d.Snapshot().DropReasons[obs.DropClosed].Packets != 1 {
		t.Error("closed-intake drop not recorded")
	}
}

// TestHierarchicalDataplane: a topology-driven engine auto-registers the
// leaves as classes, schedules through the H-PFQ tree, and exposes interior
// node snapshots.
func TestHierarchicalDataplane(t *testing.T) {
	top := topo.Interior("root", 1,
		topo.Interior("left", 3,
			topo.Leaf("A", 2, 0),
			topo.Leaf("B", 1, 1),
		),
		topo.Leaf("C", 1, 2),
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 4e6, WithClock(clk), WithTopology(top), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Classes()); got != 3 {
		t.Fatalf("topology registered %d classes, want 3", got)
	}
	if err := d.AddClass(9, 1e5); err == nil {
		t.Fatal("AddClass must be rejected in topology mode")
	}
	const n = 20
	for i := 0; i < n; i++ {
		for class := 0; class < 3; class++ {
			if err := d.Ingest(class, mkPayload(class, i, 500)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pipe := NewPipe(3 * n)
	out := collectFrom(pipe)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool { return out.count() >= 3*n })
	// hier.Tree counts the in-flight packet until the next Dequeue resets
	// its path, so draining needs the clock to keep moving.
	closeDraining(t, d, clk)
	pipe.Close()
	<-out.done

	m := d.Snapshot()
	if m.Dequeued.Packets != 3*n || !m.Conserved() {
		t.Errorf("dequeued %d (conserved=%v), want %d", m.Dequeued.Packets, m.Conserved(), 3*n)
	}
	nodes := d.NodeSnapshots()
	if _, ok := nodes["left"]; !ok {
		t.Errorf("node snapshots %v missing interior node \"left\"", nodes)
	}
}

// TestCloseDrains: Close blocks until every staged datagram has been paced
// out.
func TestCloseDrains(t *testing.T) {
	d, err := New("WF2Q+", 1e8, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e8)
	const n = 100
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, mkPayload(0, i, 1250)); err != nil {
			t.Fatal(err)
		}
	}
	pipe := NewPipe(n)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Backlog() != 0 {
		t.Errorf("backlog %d after Close, want 0", d.Backlog())
	}
	m := d.Snapshot()
	if m.Dequeued.Packets != n {
		t.Errorf("dequeued %d, want %d", m.Dequeued.Packets, n)
	}
	// Every datagram must be sitting in the pipe.
	pipe.Close()
	buf := make([]byte, 2048)
	got := 0
	for {
		if _, err := pipe.ReadPacket(buf); err != nil {
			break
		}
		got++
	}
	if got != n {
		t.Errorf("pipe received %d datagrams, want %d", got, n)
	}
}

// failWriter always fails, exercising the write-error drop path.
type failWriter struct{}

func (failWriter) WriteBatch([]Datagram) (int, error) { return 0, errors.New("down") }

func TestWriteErrorsRecorded(t *testing.T) {
	d, err := New("WF2Q+", 1e8, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e8)
	for i := 0; i < 3; i++ {
		if err := d.Ingest(0, mkPayload(0, i, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(failWriter{}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	m := d.Snapshot()
	if m.DropReasons[obs.DropWrite].Packets != 3 {
		t.Errorf("write-error drops = %+v, want 3", m.DropReasons[obs.DropWrite])
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := New("NOPE", 1e6); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := New("WF2Q+", -1); err == nil {
		t.Error("negative rate must error")
	}
	bad := topo.Interior("root", 1) // interior without children is invalid
	if _, err := New("WF2Q+", 1e6, WithTopology(bad)); err == nil {
		t.Error("bad topology must error")
	}
	d, _ := New("WF2Q+", 1e6)
	if err := d.Start(nil); err == nil {
		t.Error("nil writer must error")
	}
	d.AddClass(0, 1e5)
	if err := d.AddClass(0, 1e5); err == nil {
		t.Error("duplicate class must error")
	}
	if err := d.Ingest(0, nil); err == nil {
		t.Error("empty datagram must error")
	}
	pipe := NewPipe(1)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(pipe); err == nil {
		t.Error("double Start must error")
	}
	d.Close()
	if err := d.Start(pipe); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close: %v, want ErrClosed", err)
	}
}

// TestRootChoosesAmongStagedBatch: the pump stages a whole batch before
// its first dequeue, and the tree's root commits only when the pump asks,
// so the first datagram out of an idle engine is the best of the batch,
// not the first staged. Under strict priority, class 1's three datagrams,
// staged first, leave after class 0's — flat and over a topology.
func TestRootChoosesAmongStagedBatch(t *testing.T) {
	for _, top := range []string{"", "root=1:SP(a=1:0,b=1:1)"} {
		clk := wallclock.NewFake()
		opts := []Option{WithClock(clk)}
		if top != "" {
			opts = append(opts, WithTopology(mustTopo(t, top)))
		}
		d, err := New("SP", 1e6, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if top == "" {
			d.AddClass(0, 5e5)
			d.AddClass(1, 5e5)
		}
		for _, class := range []int{1, 1, 1, 0, 0, 0} {
			if err := d.Ingest(class, mkPayload(class, 0, 125)); err != nil {
				t.Fatal(err)
			}
		}
		var order []int
		d.Start(writerFunc(func(b []byte) (int, error) { order = append(order, int(b[0])); return len(b), nil }))
		closeDraining(t, d, clk)
		if want := []int{0, 0, 0, 1, 1, 1}; !slices.Equal(order, want) {
			t.Errorf("topology %q: egress order %v, want %v", top, order, want)
		}
	}
}
