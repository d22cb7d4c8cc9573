package dataplane

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpfq/internal/obs"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// classCountWriter counts written datagrams per class (payload byte 0),
// atomically.
type classCountWriter struct {
	mu     sync.Mutex
	counts map[int]int64
}

func newClassCountWriter() *classCountWriter {
	return &classCountWriter{counts: make(map[int]int64)}
}

func (w *classCountWriter) WritePacket(b []byte) (int, error) {
	w.mu.Lock()
	w.counts[int(b[0])]++
	w.mu.Unlock()
	return len(b), nil
}

func (w *classCountWriter) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

func (w *classCountWriter) count(class int) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.counts[class]
}

// TestSetRateLive retunes a flat class mid-stream and checks both the
// engine's bookkeeping and the scheduler's registered rate move.
func TestSetRateLive(t *testing.T) {
	d, err := New("WF2Q+", 1e7, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 6e6)
	d.AddClass(1, 4e6)
	if err := d.SetRate(0, 2e6); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.Classes[0].Rate != 2e6 {
		t.Fatalf("class 0 rate = %g after SetRate, want 2e6", st.Classes[0].Rate)
	}
	if sm, ok := d.Snapshot().Session(0); !ok || sm.Rate != 2e6 {
		t.Fatalf("scheduler session 0 rate = %v, want 2e6", sm.Rate)
	}
	if err := d.SetRate(0, -1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := d.SetRate(9, 1e6); !errors.Is(err, ErrNoClass) {
		t.Fatalf("SetRate on unknown class: %v, want ErrNoClass", err)
	}
}

// TestRetuneUnsupportedPolicy: the exact-GPS clocks (WFQ) have no live
// retune hook; every mutation must fail with a descriptive error and leave
// the engine serving.
func TestRetuneUnsupportedPolicy(t *testing.T) {
	d, err := New("WFQ", 1e7)
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 6e6)
	d.AddClass(1, 4e6)
	if err := d.SetRate(0, 2e6); err == nil || !strings.Contains(err.Error(), "retun") {
		t.Fatalf("WFQ SetRate: %v, want a live-retuning error", err)
	}
	if err := d.RemoveClass(0); err == nil {
		t.Fatal("WFQ RemoveClass succeeded, want a capability error")
	}
	if st := d.Status(); len(st.Classes) != 2 || st.Classes[0].Draining {
		t.Fatalf("failed RemoveClass mutated state: %+v", st.Classes)
	}
}

// TestRemoveClassDrains is the drain story end to end: RemoveClass refuses
// new ingest immediately, the staged remainder leaves in scheduled order
// with zero loss, and the class disappears once quiesced — freeing its
// bandwidth without disturbing the survivor.
func TestRemoveClassDrains(t *testing.T) {
	const size = 125 // 1000 bits
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 6e5)
	d.AddClass(1, 4e5)
	const staged = 20
	for i := 0; i < staged; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(1, mkPayload(1, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveClass(1); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveClass(1); err != nil {
		t.Fatalf("second RemoveClass not idempotent: %v", err)
	}
	if err := d.Ingest(1, mkPayload(1, 99, size)); !errors.Is(err, ErrClassDraining) {
		t.Fatalf("Ingest into draining class: %v, want ErrClassDraining", err)
	}
	// The staged remainder must still drain completely.
	advanceUntil(t, d, clk, 10*time.Millisecond, func() bool {
		return w.count(1) == staged && w.count(0) == staged
	})
	// Finalization needs one more pump pass after quiescence.
	advanceUntil(t, d, clk, 10*time.Millisecond, func() bool {
		for _, c := range d.Status().Classes {
			if c.ID == 1 {
				return false
			}
		}
		return true
	})
	m := d.Snapshot()
	if got := m.DropReasons[obs.DropDraining].Packets; got != 1 {
		t.Fatalf("draining drops = %d, want 1", got)
	}
	if m.Dequeued.Packets != 2*staged {
		t.Fatalf("dequeued %d, want %d (zero loss)", m.Dequeued.Packets, 2*staged)
	}
	// The freed class id can return.
	if err := d.AddClass(1, 4e5); err != nil {
		t.Fatalf("re-adding removed class: %v", err)
	}
	closeDraining(t, d, clk)
}

// TestSetPolicyLive swaps the flat discipline under a standing backlog; the
// backlog survives the swap and drains completely under the new policy.
func TestSetPolicyLive(t *testing.T) {
	const size = 125
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 6e5)
	d.AddClass(1, 4e5)
	const staged = 15
	for i := 0; i < staged; i++ {
		d.Ingest(0, mkPayload(0, i, size))
		d.Ingest(1, mkPayload(1, i, size))
	}
	if err := d.SetPolicyName("", "DRR"); err != nil {
		t.Fatal(err)
	}
	if st := d.Status(); st.Algorithm != "DRR" {
		t.Fatalf("algorithm = %q after swap, want DRR", st.Algorithm)
	}
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, 10*time.Millisecond, func() bool {
		return w.count(0) == staged && w.count(1) == staged
	})
	// Swap again while the pump is live, then keep serving.
	if err := d.SetPolicyName("", "SCFQ"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < staged; i++ {
		if err := d.Ingest(0, mkPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	advanceUntil(t, d, clk, 10*time.Millisecond, func() bool { return w.count(0) == 2*staged })
	if err := d.SetPolicyName("", "no-such-policy"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if n := d.Status().Restarts; n != 0 {
		t.Fatalf("pump restarted %d times across policy swaps, want 0", n)
	}
	closeDraining(t, d, clk)
}

// TestTopologyMutationsLive drives the hierarchical mutation surface on a
// running engine: leaf retune, node share retune, graft, and drain-removal,
// with the class rates tracking the tree's share algebra throughout.
func TestTopologyMutationsLive(t *testing.T) {
	top, err := topo.Parse("root=1(agg=3(a=2:0,b=1:1),c=1:2)")
	if err != nil {
		t.Fatal(err)
	}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 8e6, WithClock(clk), WithTopology(top), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	// root 8e6: agg 6e6 (a 4e6, b 2e6), c 2e6.
	if r := d.Status().Classes[0].Rate; r != 4e6 {
		t.Fatalf("leaf a rate = %g, want 4e6", r)
	}
	// Retune leaf a to 3e6 absolute: shares re-solve inside agg.
	if err := d.SetRate(0, 3e6); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.Classes[0].Rate != 3e6 || st.Classes[1].Rate != 3e6 {
		t.Fatalf("after SetRate(0,3e6): a=%g b=%g, want 3e6 each", st.Classes[0].Rate, st.Classes[1].Rate)
	}
	// Rebalance agg vs c to equal shares: agg 4e6, c 4e6.
	if err := d.SetWeight("agg", 1); err != nil {
		t.Fatal(err)
	}
	if st = d.Status(); st.Classes[2].Rate != 4e6 {
		t.Fatalf("after SetWeight(agg,1): c=%g, want 4e6", st.Classes[2].Rate)
	}
	// Graft a new leaf under root with share 2: root splits 1:1:2.
	if err := d.AddLeafClass("root", "d", 3, 2, 0); err != nil {
		t.Fatal(err)
	}
	if st = d.Status(); st.Classes[3].Rate != 4e6 || st.Classes[2].Rate != 2e6 {
		t.Fatalf("after graft: d=%g c=%g, want 4e6/2e6", st.Classes[3].Rate, st.Classes[2].Rate)
	}
	if err := d.AddLeafClass("root", "dup", 3, 1, 0); err == nil {
		t.Fatal("duplicate class id accepted")
	}
	if err := d.SetWeight("root", 2); err == nil {
		t.Fatal("root share retune accepted")
	}
	// Drain-remove the graft while the pump runs; siblings inherit.
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	const staged = 10
	for i := 0; i < staged; i++ {
		if err := d.Ingest(3, mkPayload(3, i, 125)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RemoveClass(3); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, 5*time.Millisecond, func() bool { return w.count(3) == staged })
	advanceUntil(t, d, clk, 5*time.Millisecond, func() bool {
		st := d.Status()
		for _, c := range st.Classes {
			if c.ID == 3 {
				return false
			}
		}
		return st.Classes[2].Rate == 4e6 // c's share restored
	})
	closeDraining(t, d, clk)
	m := d.Snapshot()
	if m.Dropped.Packets != 0 {
		t.Fatalf("dropped %d datagrams across mutations, want 0", m.Dropped.Packets)
	}
}

// TestRemoveLastChildRefused: a topology node must keep at least one child,
// and the refusal must happen before the class starts draining.
func TestRemoveLastChildRefused(t *testing.T) {
	top, err := topo.Parse("root=1(a=1:0,b=1(c=1:1))")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("WF2Q+", 1e6, WithTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveClass(1); err == nil {
		t.Fatal("removing node b's only child succeeded")
	}
	if err := d.Ingest(1, mkPayload(1, 0, 125)); err != nil {
		t.Fatalf("class 1 draining after refused removal: %v", err)
	}
}

// TestReconfigureUnderLoad is the -race workout for the control plane:
// producers hammer three classes of a topology while a control goroutine
// retunes rates and shares, grafts and drain-removes a fourth class, and
// flips ceilings — under the real clock, with the pump writing throughout.
// Every datagram accepted by Ingest must be written exactly once: zero loss
// for surviving classes, including everything a removed class accepted
// before its drain began.
func TestReconfigureUnderLoad(t *testing.T) {
	top, err := topo.Parse("root=1(agg=3(a=2:0,b=1:1),c=1:2)")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("WF2Q+", 4e8, WithTopology(top), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	w := newClassCountWriter()
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}

	const producers = 4
	var accepted [4]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				class := (p + i) % 4
				err := d.Ingest(class, mkPayload(class, i, 64+i%256))
				switch {
				case err == nil:
					accepted[class].Add(1)
				case errors.Is(err, ErrNoClass), errors.Is(err, ErrClassDraining):
					// Class 3 comes and goes under the control loop.
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Error(err)
					return
				}
				if i%64 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(p)
	}

	// Control loop: every mutation the admin API exposes, repeatedly.
	deadline := time.Now().Add(300 * time.Millisecond)
	for round := 0; time.Now().Before(deadline); round++ {
		if err := d.SetRate(0, 1e8+float64(round%7)*1e7); err != nil {
			t.Fatal(err)
		}
		if err := d.SetWeight("agg", 1+float64(round%3)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddLeafClass("root", "", 3, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.SetCeil(2, 2e8); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := d.RemoveClass(3); err != nil {
			t.Fatal(err)
		}
		if err := d.SetCeil(2, 0); err != nil {
			t.Fatal(err)
		}
		// Wait for the drain to finalize so the next graft can reuse id 3.
		for done := false; !done; {
			done = true
			for _, c := range d.Status().Classes {
				if c.ID == 3 {
					done = false
				}
			}
			if !done {
				time.Sleep(time.Millisecond)
			}
		}
		d.Snapshot() // observability races with mutations too
	}
	close(stop)
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Refused ingest into the draining class is recorded under the
	// "draining" reason and never entered the scheduler; any other drop
	// reason would mean an accepted datagram was lost.
	m := d.Snapshot()
	if lost := m.Dropped.Packets - m.DropReasons[obs.DropDraining].Packets; lost != 0 {
		t.Fatalf("lost %d accepted datagrams under reconfiguration (reasons %v)",
			lost, m.DropReasons)
	}
	for class := 0; class < 4; class++ {
		if got, want := w.count(class), accepted[class].Load(); got != want {
			t.Fatalf("class %d: wrote %d of %d accepted datagrams", class, got, want)
		}
	}
}

// TestClassIDBounds: a class id must lie in [0, MaxClassID]. A negative id
// used to panic inside the scheduler and a huge one to allocate state for
// every smaller id, so the admin API could crash the process; both are now
// refused up front, in flat and topology mode and at construction.
func TestClassIDBounds(t *testing.T) {
	flat, err := New("WF2Q+", 1e7)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, MaxClassID + 1, 1 << 40} {
		if err := flat.AddClass(id, 1e6); err == nil {
			t.Errorf("AddClass(%d) accepted", id)
		}
	}
	if err := flat.AddClass(MaxClassID, 1e6); err != nil {
		t.Errorf("AddClass(MaxClassID): %v", err)
	}

	top, err := topo.Parse("root=1(agg=1(a=1:0),b=1:1)")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New("WF2Q+", 1e7, WithTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, MaxClassID + 1} {
		if err := tree.AddLeafClass("agg", "x", id, 1, 0); err == nil {
			t.Errorf("AddLeafClass(%d) accepted", id)
		}
	}
	if err := tree.AddLeafClass("agg", "x", MaxClassID, 1, 0); err != nil {
		t.Errorf("AddLeafClass(MaxClassID): %v", err)
	}

	huge, err := topo.Parse(fmt.Sprintf("root=1(a=1:0,b=1:%d)", MaxClassID+1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("WF2Q+", 1e7, WithTopology(huge)); err == nil {
		t.Error("a topology leaf past MaxClassID accepted")
	}
}
