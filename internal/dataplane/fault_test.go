package dataplane

import (
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpfq/internal/faultconn"
	"hpfq/internal/obs"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// faultSeed is the fault-injection seed: fixed for reproducibility, and
// overridable via HPFQ_FAULT_SEED (the `make fault` knob) to explore other
// fault sequences.
func faultSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("HPFQ_FAULT_SEED")
	if s == "" {
		return 20260806
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("HPFQ_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// faultWriter bridges a faultconn.Writer, which takes raw payloads, to the
// engine's Writer. The embedded writer's SetWriteDeadline is promoted, so
// the watchdog can interrupt an injected stall. stalls says every write
// blocks until the watchdog ends it; pumpSettled then counts a pump inside
// WriteBatch (writing) as parked.
type faultWriter struct {
	*faultconn.Writer
	stalls  bool
	writing atomic.Bool
	raw     [][]byte
}

func (w *faultWriter) WriteBatch(pkts []Datagram) (int, error) {
	w.writing.Store(true)
	defer w.writing.Store(false)
	w.raw = w.raw[:0]
	for i := range pkts {
		w.raw = append(w.raw, pkts[i].B)
	}
	return w.Writer.WriteBatch(w.raw)
}

// transientErr is a minimal self-classifying transient error.
type transientErr struct{}

func (transientErr) Error() string   { return "transient test error" }
func (transientErr) Transient() bool { return true }

// doomedWriter fails every write of the datagrams doomed picks with a
// transient error and delivers the rest, keeping their payloads in order.
type doomedWriter struct {
	doomed    func(b []byte) bool
	attempts  atomic.Int64 // writes of doomed datagrams
	mu        sync.Mutex
	delivered [][]byte
}

func (w *doomedWriter) WritePacket(b []byte) (int, error) {
	if w.doomed(b) {
		w.attempts.Add(1)
		return 0, transientErr{}
	}
	w.mu.Lock()
	w.delivered = append(w.delivered, append([]byte(nil), b...))
	w.mu.Unlock()
	return len(b), nil
}

func (w *doomedWriter) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

// panicWriter panics on its panicOn-th write and delivers otherwise.
type panicWriter struct {
	panicOn   int64
	attempts  atomic.Int64
	delivered atomic.Int64
}

func (w *panicWriter) WritePacket(b []byte) (int, error) {
	if w.attempts.Add(1) == w.panicOn {
		panic("poison datagram")
	}
	w.delivered.Add(1)
	return len(b), nil
}

func (w *panicWriter) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

// TestRetryDeliversAll is the acceptance test from the issue: with seeded
// transient faults injected into well over 10% of writes (errors plus short
// writes), the pump still delivers 100% of the offered packets via
// retry/backoff, and the per-reason retry/drop counters account for every
// packet and every injected fault.
func TestRetryDeliversAll(t *testing.T) {
	const (
		offered = 500
		size    = 125
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics(),
		WithWriteRetry(12, 200*time.Microsecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 0.75e8)
	d.AddClass(1, 0.25e8)
	inner := &countWriter{}
	fw := &faultWriter{Writer: faultconn.NewWriter(inner,
		faultconn.WithSeed(faultSeed(t)),
		faultconn.WithErrorRate(0.20),
		faultconn.WithShortWrites(0.05))}
	for i := 0; i < offered; i++ {
		if err := d.Ingest(i%2, mkPayload(i%2, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(fw); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool {
		return inner.packets.Load() >= offered
	})
	closeDraining(t, d, clk)

	st := fw.Stats()
	faults := st.Transient + st.ShortWrites
	if frac := float64(faults) / float64(st.Ops); frac < 0.10 {
		t.Fatalf("fault plan too gentle: %d faults in %d writes (%.0f%%), want >= 10%%",
			faults, st.Ops, frac*100)
	}
	if got := inner.packets.Load(); got != offered {
		t.Errorf("delivered %d of %d offered packets", got, offered)
	}
	m := d.Snapshot()
	if m.Dropped.Packets != 0 {
		t.Errorf("dropped %d packets despite retry budget: %v", m.Dropped.Packets, m.DropReasons)
	}
	// Conservation: everything offered was enqueued, dequeued, and written.
	if !m.Conserved() {
		t.Error("metrics not conserved")
	}
	if m.Enqueued.Packets != offered || m.Dequeued.Packets != offered {
		t.Errorf("enqueued %d dequeued %d, want %d", m.Enqueued.Packets, m.Dequeued.Packets, offered)
	}
	// Every injected fault surfaced as exactly one recorded retry (no packet
	// exhausted its budget, so no fault went unretried).
	if m.Retried.Packets != int64(faults) {
		t.Errorf("recorded %d retries, injected %d transient faults", m.Retried.Packets, faults)
	}
	if got := m.RetryReasons[obs.RetryTransient].Packets; got != int64(faults) {
		t.Errorf("retry reason %q has %d, want %d", obs.RetryTransient, got, faults)
	}
	// Per-class retry counters sum to the global one.
	var perClass int64
	for _, id := range []int{0, 1} {
		s, ok := m.Session(id)
		if !ok {
			t.Fatalf("no session metrics for class %d", id)
		}
		perClass += s.Retried.Packets
	}
	if perClass != m.Retried.Packets {
		t.Errorf("per-class retries %d != global %d", perClass, m.Retried.Packets)
	}
}

// TestRetryExhaustedDrops: a datagram whose writes keep failing burns its
// retry budget and is dropped with reason "retry-exhausted", whether the
// writer never recovers or fails only chosen datagrams. The drop is final,
// so each class's surviving datagrams reach the writer in ingest order.
func TestRetryExhaustedDrops(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes int
		offered int // per class
		doomed  func(b []byte) bool
	}{
		{"never-recovers", 1, 5, func([]byte) bool { return true }},
		{"chosen-datagrams", 2, 40, func(b []byte) bool { return b[1]%3 == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := wallclock.NewFake()
			d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics(),
				WithWriteRetry(2, 100*time.Microsecond, time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < tc.classes; c++ {
				d.AddClass(c, 1e8/float64(tc.classes))
			}
			doomed := 0
			survivors := make([][]byte, tc.classes) // seq bytes, in ingest order
			for i := 0; i < tc.offered; i++ {
				for c := 0; c < tc.classes; c++ {
					b := mkPayload(c, i, 125)
					if tc.doomed(b) {
						doomed++
					} else {
						survivors[c] = append(survivors[c], b[1])
					}
					if err := d.Ingest(c, b); err != nil {
						t.Fatal(err)
					}
				}
			}
			w := &doomedWriter{doomed: tc.doomed}
			if err := d.Start(w); err != nil {
				t.Fatal(err)
			}
			advanceUntil(t, d, clk, time.Millisecond, func() bool {
				return d.Snapshot().DropReasons[obs.DropRetries].Packets == int64(doomed)
			})
			closeDraining(t, d, clk)

			m := d.Snapshot()
			if got := m.DropReasons[obs.DropRetries].Packets; got != int64(doomed) {
				t.Errorf("%q drops = %d, want %d", obs.DropRetries, got, doomed)
			}
			if m.Retried.Packets != int64(2*doomed) { // retry limit 2 per packet
				t.Errorf("retries = %d, want %d", m.Retried.Packets, 2*doomed)
			}
			if w.attempts.Load() != int64(3*doomed) { // initial write + 2 retries, per packet
				t.Errorf("writer saw %d attempts, want %d", w.attempts.Load(), 3*doomed)
			}
			if !m.Conserved() {
				t.Error("metrics not conserved")
			}
			got := make([][]byte, tc.classes)
			for _, b := range w.delivered {
				got[b[0]] = append(got[b[0]], b[1])
			}
			for c := range got {
				if !slices.Equal(got[c], survivors[c]) {
					t.Errorf("class %d delivered seqs %v, want %v (ingest order)", c, got[c], survivors[c])
				}
			}
		})
	}
}

// gatedWriter delivers every datagram but those of class stale (by the
// class byte mkPayload writes), which all fail transiently; it holds the
// pump in the first such write until release is closed.
type gatedWriter struct {
	stale     byte
	entered   chan struct{} // closed when the first write of class stale begins
	release   chan struct{}
	once      sync.Once
	attempts  atomic.Int64 // writes of class stale
	delivered atomic.Int64 // datagrams of other classes
}

func (w *gatedWriter) WritePacket(b []byte) (int, error) {
	if b[0] == w.stale {
		w.once.Do(func() {
			close(w.entered)
			<-w.release
		})
		w.attempts.Add(1)
		return 0, transientErr{}
	}
	w.delivered.Add(1)
	return len(b), nil
}

func (w *gatedWriter) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

// TestRetryExhaustedAfterSlotReuse: a class is removed while its datagram
// is in flight, and another class is grafted into the freed leaf slot. When
// the in-flight write then exhausts its retries, the datagram drops as
// "retry-exhausted" and is accounted to the class it left — never to the
// new class through the leaf its envelope resolved at admission — and every
// count settles.
func TestRetryExhaustedAfterSlotReuse(t *testing.T) {
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics(),
		WithWriteRetry(1, 100*time.Microsecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2} {
		if err := d.AddClass(id, 2e7); err != nil {
			t.Fatal(err)
		}
	}
	w := &gatedWriter{stale: 0, entered: make(chan struct{}), release: make(chan struct{})}
	if err := d.Ingest(2, mkPayload(2, 0, 125)); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	// Once the pump has run a batch, a tokens' worth of idle time lets the
	// next batch dequeue past class 0's datagram, which resets its path:
	// only then is its leaf free to remove while the datagram is in flight.
	advanceUntil(t, d, clk, 100*time.Microsecond, func() bool { return w.delivered.Load() == 1 })
	clk.Advance(10 * time.Millisecond)
	if err := d.Ingest(0, mkPayload(0, 0, 125)); err != nil {
		t.Fatal(err)
	}
	<-w.entered // class 0's datagram is in flight; its batch has settled
	if err := d.RemoveClass(0); err != nil {
		t.Fatal(err)
	}
	if got := d.Classes(); len(got) != 1 {
		t.Fatalf("classes %v after RemoveClass(0) mid-write, want [2]", got)
	}
	if err := d.AddClass(1, 2e7); err != nil { // takes class 0's freed leaf slot
		t.Fatal(err)
	}
	const later = 20
	for k := 0; k < later; k++ {
		if err := d.Ingest(1, mkPayload(1, k, 125)); err != nil {
			t.Fatal(err)
		}
	}
	close(w.release)
	advanceUntil(t, d, clk, 100*time.Microsecond, func() bool {
		return w.delivered.Load() == 1+later && d.Snapshot().DropReasons[obs.DropRetries].Packets == 1
	})
	if d.Backlog() != 0 {
		t.Errorf("backlog %d after everything left", d.Backlog())
	}
	for _, c := range d.Status().Classes {
		if c.Queued != 0 || c.QueuedBytes != 0 {
			t.Errorf("class %d still counts %d datagrams (%d bytes)", c.ID, c.Queued, c.QueuedBytes)
		}
	}
	closeDraining(t, d, clk)

	if got := w.attempts.Load(); got != 2 { // the first write and its one retry
		t.Errorf("class 0's datagram was written %d times, want 2", got)
	}
	m := d.Snapshot()
	if s, ok := m.Session(1); !ok || s.Enqueued.Packets != later || s.Dequeued.Packets != later {
		t.Errorf("class 1 enqueued %d dequeued %d, want %d each", s.Enqueued.Packets, s.Dequeued.Packets, later)
	}
	if !m.Conserved() {
		t.Error("metrics not conserved")
	}
}

// TestPumpPanicRestart: a Writer panic costs the in-flight batch (accounted
// as "pump-panic" drops) but not the link — the supervisor restarts the pump
// and later traffic flows.
func TestPumpPanicRestart(t *testing.T) {
	const size = 125
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e9, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e9)
	w := &panicWriter{panicOn: 2}
	// On the fake clock the batching is deterministic: the pump's first
	// batch has zero accrued tokens and takes exactly one packet (write 1
	// delivers); the first clock advance funds the remaining four as one
	// batch, whose first write (attempt 2) panics — so packets 2-5 are the
	// lost in-flight batch.
	for i := 0; i < 5; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, 10*time.Millisecond, func() bool { return d.Status().Restarts == 1 })

	// The pump is alive again: new datagrams flow.
	for i := 5; i < 8; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	advanceUntil(t, d, clk, 10*time.Millisecond, func() bool { return w.delivered.Load() == 4 })
	closeDraining(t, d, clk)

	m := d.Snapshot()
	if d.Status().Restarts != 1 {
		t.Errorf("restarts = %d, want 1", d.Status().Restarts)
	}
	if got := m.DropReasons[obs.DropPanic].Packets; got != 4 {
		t.Errorf("%q drops = %d, want 4 (the in-flight batch)", obs.DropPanic, got)
	}
	if w.delivered.Load() != 4 {
		t.Errorf("delivered %d, want 4", w.delivered.Load())
	}
	if !m.Conserved() {
		t.Error("metrics not conserved after a pump restart")
	}
}

// panicTracer panics on its panicOn-th Dequeue event and ignores the rest.
type panicTracer struct {
	panicOn  int
	dequeues int // under the engine's scheduler lock
}

func (t *panicTracer) Enqueue(obs.Event) {}
func (t *panicTracer) Drop(obs.Event)    {}
func (t *panicTracer) Dequeue(obs.Event) {
	if t.dequeues++; t.dequeues == t.panicOn {
		panic("poisoned tracer")
	}
}

// TestTracerPanicInDequeue: a tracer that panics inside the scheduler's
// Dequeue fires after the scheduler committed the packet. The packet must
// still be accounted (as a "pump-panic" drop), so the engine's backlog
// drains to zero, Close returns, and the metrics stay conserved — flat and
// over a topology, where interior nodes fire their own Dequeue events.
func TestTracerPanicInDequeue(t *testing.T) {
	top, err := topo.Parse("root=1(a=1(x=1:0,y=1:1),b=1:2)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opts    []Option
		classes int
	}{
		{"flat", nil, 1},
		{"topology", []Option{WithTopology(top)}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 30
			clk := wallclock.NewFake()
			d, err := New("WF2Q+", 1e9, append(tc.opts, WithClock(clk), WithMetrics(),
				WithTracer(&panicTracer{panicOn: 5}))...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opts == nil {
				d.AddClass(0, 1e9)
			}
			w := &panicWriter{panicOn: -1}
			if err := d.Start(w); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := d.Ingest(i%tc.classes, mkPayload(i%tc.classes, i, 125)); err != nil {
					t.Fatal(err)
				}
			}
			advanceUntil(t, d, clk, time.Millisecond, func() bool { return d.Status().Restarts == 1 })
			closeDraining(t, d, clk)

			m := d.Snapshot()
			lost := m.DropReasons[obs.DropPanic].Packets
			if lost == 0 {
				t.Errorf("no %q drops: the packet dequeued under the panic was not accounted", obs.DropPanic)
			}
			if got := w.delivered.Load() + lost; got != n {
				t.Errorf("delivered %d + panic drops %d = %d, want %d", w.delivered.Load(), lost, got, n)
			}
			if b := d.Backlog(); b != 0 {
				t.Errorf("backlog after Close = %d, want 0", b)
			}
			if !m.Conserved() {
				t.Error("metrics not conserved after a tracer panic")
			}
		})
	}
}

// TestFairnessUnderTransientErrors: the issue's satellite — seeded transient
// write errors slow the link but must not skew the schedule. Both classes
// stay backlogged through the measurement window, so their delivered shares
// must still match the configured 3:1 rates within 10%.
func TestFairnessUnderTransientErrors(t *testing.T) {
	const (
		rate    = 10e6
		size    = 1250
		prefill = 300
		measure = 200
	)
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", rate, WithClock(clk), WithMetrics(),
		WithWriteRetry(12, 100*time.Microsecond, time.Millisecond))
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
	fw := &faultWriter{Writer: faultconn.NewWriter(pipe,
		faultconn.WithSeed(faultSeed(t)),
		faultconn.WithErrorRate(0.25))}
	if err := d.Start(fw); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool { return out.count() >= measure })
	closeDraining(t, d, clk)
	pipe.Close()
	<-out.done

	if st := fw.Stats(); st.Transient == 0 {
		t.Fatal("fault plan injected no errors; the test is vacuous")
	}
	counts := map[int]int{}
	for i, class := range out.classes() {
		if i >= measure {
			break
		}
		counts[class]++
	}
	share := float64(counts[0]) / float64(measure)
	if share < 0.75*0.9 || share > 0.75*1.1 {
		t.Errorf("class 0 share under faults = %.3f (counts %v), want 0.75 ± 10%%", share, counts)
	}
	if m := d.Snapshot(); m.Dropped.Packets != 0 {
		t.Errorf("transient faults caused %d drops: %v", m.Dropped.Packets, m.DropReasons)
	}
}
