package dataplane

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// TestRecordLayout: the admission record and the inbox record are one
// 64-byte cache line each, so Ingest and the pump never share a line
// through them (DESIGN.md S39).
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(classState{}); n != 64 {
		t.Errorf("classState is %d bytes, want one 64-byte line", n)
	}
	if n := unsafe.Sizeof(inboxRecord{}); n != 64 {
		t.Errorf("inboxRecord is %d bytes, want one 64-byte line", n)
	}
}

// stallWriter counts delivered datagrams; while stalled, every WriteBatch
// announces itself on entered and blocks until release.
type stallWriter struct {
	mu      sync.Mutex
	gate    chan struct{} // nil: writes pass
	entered chan struct{} // buffered(1)
	n       atomic.Int64
}

func newStallWriter() *stallWriter { return &stallWriter{entered: make(chan struct{}, 1)} }

func (w *stallWriter) WriteBatch(pkts []Datagram) (int, error) {
	w.mu.Lock()
	g := w.gate
	w.mu.Unlock()
	if g != nil {
		select {
		case w.entered <- struct{}{}:
		default:
		}
		<-g
	}
	w.n.Add(int64(len(pkts)))
	return len(pkts), nil
}

func (w *stallWriter) stall() {
	w.mu.Lock()
	w.gate = make(chan struct{})
	w.mu.Unlock()
}

func (w *stallWriter) release() {
	w.mu.Lock()
	close(w.gate)
	w.gate = nil
	w.mu.Unlock()
}

// TestClassSlotReuseCounts: a class holds datagrams behind a stalled
// writer, is removed, drains and finalizes, and a new class takes its slot.
// The new class starts at Queued 0 with fresh CoDel state, and its packet
// cap counts from zero: it takes exactly the cap while nothing departs.
func TestClassSlotReuseCounts(t *testing.T) {
	const capPkts = 4
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithAQM(), WithQueueCap(capPkts))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1} {
		if err := d.AddClass(id, 5e5); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	_, s0 := d.classLocked(0)
	d.mu.Unlock()

	// One datagram in flight holds the pump in the stalled write; the class
	// then fills to its cap in the inbox.
	w := newStallWriter()
	w.stall()
	if err := d.Ingest(0, mkPayload(0, 0, 125)); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	<-w.entered
	for k := 1; k <= capPkts; k++ {
		if err := d.Ingest(0, mkPayload(0, k, 125)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Ingest(0, mkPayload(0, 9, 125)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("ingest past the cap: %v, want ErrQueueFull", err)
	}
	// The held datagrams' sojourn passes CoDel's target before they leave,
	// so the departing class leaves CoDel state behind in its slot.
	clk.Advance(200 * time.Millisecond)
	if err := d.RemoveClass(0); err != nil {
		t.Fatal(err)
	}
	if p, _ := queued(d, 0); p != capPkts {
		t.Fatalf("draining class queues %d, want %d", p, capPkts)
	}
	w.release()
	advanceUntil(t, d, clk, time.Millisecond, func() bool { return len(d.Classes()) == 1 })
	d.lock()
	fresh := newCodel(codelTarget, codelInterval)
	if d.aqm[s0] == fresh {
		t.Error("the removed class left no CoDel state; the reuse check below shows nothing")
	}
	d.unlock()

	if err := d.AddClass(2, 5e5); err != nil {
		t.Fatal(err)
	}
	d.lock()
	_, s2 := d.classLocked(2)
	reused, codelFresh := s2 == s0, d.aqm[s2] == fresh
	d.unlock()
	if !reused {
		t.Fatalf("class 2 took slot %d, want the freed slot %d", s2, s0)
	}
	if !codelFresh {
		t.Error("class 2 inherited the removed class's CoDel state")
	}
	if p, b := queued(d, 2); p != 0 || b != 0 {
		t.Fatalf("class 2 starts at %d datagrams (%d bytes), want 0", p, b)
	}

	// Nothing departs while the pump is held in a write for class 1: class
	// 2 takes exactly its cap.
	w.stall()
	if err := d.Ingest(1, mkPayload(1, 0, 125)); err != nil {
		t.Fatal(err)
	}
	<-w.entered
	for k := 0; k < capPkts; k++ {
		if err := d.Ingest(2, mkPayload(2, k, 125)); err != nil {
			t.Fatalf("class 2 datagram %d of its cap %d: %v", k+1, capPkts, err)
		}
	}
	if err := d.Ingest(2, mkPayload(2, 9, 125)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("class 2 past its cap: %v, want ErrQueueFull", err)
	}
	if p, _ := queued(d, 2); p != capPkts {
		t.Fatalf("class 2 queues %d, want %d", p, capPkts)
	}
	w.release()
	closeDraining(t, d, clk)
	if got, want := w.n.Load(), int64(2+2*capPkts); got != want {
		t.Errorf("wrote %d datagrams, want %d", got, want)
	}
	if got := d.Backlog(); got != 0 {
		t.Errorf("backlog %d after Close, want 0", got)
	}
}

// TestQueuedMatchesBacklog: four producers ingest over the 4096-leaf tree
// against a packet cap while the pump runs. Every Status taken meanwhile
// counts, summed over its classes, exactly the backlog of the same moment,
// and both read 0 once the engine drains.
func TestQueuedMatchesBacklog(t *testing.T) {
	const (
		producers = 4
		perProd   = 4000
		leaves    = 16 * 16 * 16
	)
	top, err := topo.Parse(deepTreeSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("WF2Q+", 1e12, WithTopology(top), WithBurst(1e12), WithQueueCap(2))
	if err != nil {
		t.Fatal(err)
	}
	w := &batchCounter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	sumQueued := func(st Status) (n int) {
		for _, c := range st.Classes {
			n += c.Queued
		}
		return n
	}

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				class := (i*97 + p*13) % 64 // 64 hot leaves, so the cap binds
				if i%3 == 0 {
					class = (i*2731 + p) % leaves
				}
				switch err := d.Ingest(class, make([]byte, 64)); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("producer %d ingest into %d: %v", p, class, err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var checks, nonzero atomic.Int64
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.lock()
			st, backlog := d.statusLocked(), d.backlogLocked()
			d.unlock()
			if sum := sumQueued(st); sum != backlog {
				t.Errorf("Status counts %d queued over its classes, Backlog %d", sum, backlog)
				return
			}
			checks.Add(1)
			if backlog > 0 {
				nonzero.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for w.n.Load() < accepted.Load() || d.Backlog() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: written %d of %d accepted, backlog %d", w.n.Load(), accepted.Load(), d.Backlog())
		}
		time.Sleep(time.Millisecond)
	}
	if sum := sumQueued(d.Status()); sum != 0 {
		t.Errorf("Status counts %d queued after the drain, want 0", sum)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.Backlog(); got != 0 {
		t.Errorf("backlog %d after Close, want 0", got)
	}
	t.Logf("%d consistent Status reads, %d with a backlog; %d accepted", checks.Load(), nonzero.Load(), accepted.Load())
}

// TestEnvelopeFreeListBounded: the pump allocates an envelope per staged
// datagram when its free list runs dry, and after a 20 000-datagram burst
// drains it keeps at most maxFreeEnvelopes of them.
func TestEnvelopeFreeListBounded(t *testing.T) {
	const burst = 20000
	d, err := New("WF2Q+", 1e12, WithBurst(1e12))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 1e12); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < burst; k++ {
		if err := d.Ingest(0, mkPayload(0, k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	w := &batchCounter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // drains the burst
		t.Fatal(err)
	}
	if got := w.n.Load(); got != burst {
		t.Fatalf("wrote %d of the %d-datagram burst", got, burst)
	}
	if n := len(d.envFree); n == 0 || n > maxFreeEnvelopes {
		t.Errorf("free list holds %d envelopes after the burst, want 1..%d", n, maxFreeEnvelopes)
	}
}

// TestClassSlotChurn: 10 000 cycles each graft two classes into a running
// engine on a fake clock, push datagrams through them long enough for CoDel
// to see a standing sojourn, and remove them again. The class tables stay
// at the size the first cycle left them, with the grafts in the two slots
// after the topology's leaves, and every class starts in its reused slot
// with zero counts and fresh CoDel state.
func TestClassSlotChurn(t *testing.T) {
	const (
		cycles   = 10000
		ids      = 10 // class ids 2..11 rotate through the cycles
		perClass = 8  // datagrams per class and cycle
	)
	top, err := topo.Parse("root=1(a=1:0,b=1:1)")
	if err != nil {
		t.Fatal(err)
	}
	clk := wallclock.NewFake()
	// 1 Mb/s and a 5 000-bit bucket pass at most six 125-byte datagrams
	// before the clock moves (the sixth overdraws the bucket), so each
	// class of a cycle has datagrams that wait a 10 ms step, past CoDel's
	// 5 ms target but far from its 100 ms interval.
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithTopology(top), WithAQM(), WithBurst(5000))
	if err != nil {
		t.Fatal(err)
	}
	w := &batchCounter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	var sent int64
	// advance steps the clock until cond holds, spinning on Settled between
	// steps: a sleep would wake a millisecond late on a loaded host, which
	// 10 000 cycles multiply into minutes.
	advance := func(step time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			for !Settled(d) {
				runtime.Gosched()
			}
			if cond() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("condition not reached at %v on the fake clock: wrote %d of %d, %d classes, status %+v", clk.Now(), w.n.Load(), sent, len(d.Classes()), d.Status().Classes)
			}
			clk.Advance(step)
		}
	}
	fresh := newCodel(codelTarget, codelInterval)
	tables := func() [4]int { return [4]int{cap(d.classes), cap(d.settled), cap(d.out), cap(d.aqm)} }
	var high [4]int
	for c := 0; c < cycles; c++ {
		pair := [2]int{2 + 2*c%ids, 3 + 2*c%ids}
		for _, id := range pair {
			if err := d.AddLeafClass("root", "", id, 1, 0); err != nil {
				t.Fatalf("cycle %d: add %d: %v", c, id, err)
			}
			d.lock()
			cs, s := d.classLocked(id)
			switch {
			case s != 2 && s != 3:
				t.Fatalf("cycle %d: class %d in slot %d, want 2 or 3", c, id, s)
			case cs.accepted != 0 || cs.acceptedBytes != 0 || d.settled[s] != (departures{}) || d.out[s] != (departures{}):
				t.Fatalf("cycle %d: class %d starts in slot %d with counts %+v %+v %+v", c, id, s, *cs, d.settled[s], d.out[s])
			case d.aqm[s] != fresh:
				t.Fatalf("cycle %d: class %d inherits CoDel state %+v in slot %d", c, id, d.aqm[s], s)
			}
			d.unlock()
		}
		for _, id := range pair {
			for k := 0; k < perClass; k++ {
				if err := d.Ingest(id, mkPayload(id, k, 125)); err != nil {
					t.Fatalf("cycle %d: ingest %d: %v", c, id, err)
				}
			}
		}
		sent += 2 * perClass
		advance(10*time.Millisecond, func() bool { return w.n.Load() == sent })
		d.lock()
		for _, id := range pair {
			if _, s := d.classLocked(id); d.aqm[s] == fresh {
				t.Fatalf("cycle %d: class %d left no CoDel state; the reuse check shows nothing", c, id)
			}
		}
		d.unlock()
		for i := range pair {
			if err := d.RemoveClass(pair[(c+i)%2]); err != nil { // alternate the order
				t.Fatalf("cycle %d: remove %d: %v", c, pair[(c+i)%2], err)
			}
		}
		advance(time.Millisecond, func() bool { return len(d.Classes()) == 2 })
		d.lock()
		got := tables()
		d.unlock()
		if c == 0 {
			high = got
		} else if got != high {
			t.Fatalf("cycle %d: class tables at capacity %v, %v after the first cycle", c, got, high)
		}
	}
	closeDraining(t, d, clk)
}
