package shard

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/fec"
	"hpfq/internal/wallclock"
)

// classCountWriter counts written datagrams per class (payload byte 0).
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

func (w *classCountWriter) count(class int) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.counts[class]
}

func (w *classCountWriter) total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int64
	for _, c := range w.counts {
		n += c
	}
	return n
}

func mkPayload(class, seq, size int) []byte {
	b := make([]byte, size)
	b[0] = byte(class)
	b[1] = byte(seq)
	return b
}

// advanceUntil drives a fake clock until cond holds or a real-time deadline
// expires; the pumps run concurrently, so each virtual step gets a real
// yield.
func advanceUntil(t *testing.T, clk *wallclock.Fake, step time.Duration, cond func() bool) {
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

// closeDraining closes s while advancing the fake clock, since Close blocks
// until every shard's pacer has drained its staged backlog.
func closeDraining(t *testing.T, s *Sharded, clk *wallclock.Fake) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-done:
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("Close did not drain the shards")
			}
			clk.Advance(10 * time.Millisecond)
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestSingleShardDegenerate: n == 1 is the monolithic engine behind the
// front — full rate on the one shard, no splitter, same error surface.
func TestSingleShardDegenerate(t *testing.T) {
	s, err := New("WF2Q+", 1e6, 1, []dataplane.Option{dataplane.WithMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", s.Shards())
	}
	if err := s.AddClass(0, 1e6); err != nil {
		t.Fatal(err)
	}
	// No WithShardScale division at n == 1: the shard carries the whole link.
	if r := s.Shard(0).Status().Rate; r != 1e6 {
		t.Fatalf("shard 0 rate = %g, want the whole link 1e6", r)
	}
	st := s.Status()
	if st.Shards != 1 || st.Rate != 1e6 || len(st.Classes) != 1 || st.Classes[0].Rate != 1e6 {
		t.Fatalf("merged status = %+v", st)
	}
	w := newClassCountWriter()
	if err := s.Start(func(int) dataplane.Writer { return w }); err != nil {
		t.Fatal(err)
	}
	if got := s.Shard(0).PaceRate(); got != 1e6 {
		t.Fatalf("pace = %g, want the configured 1e6 (no splitter at n=1)", got)
	}
	if err := s.Ingest(0, mkPayload(0, 0, 125)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if w.count(0) != 1 {
		t.Fatalf("wrote %d datagrams, want 1", w.count(0))
	}
}

// TestIngestErrorTaxonomy: a burst hashed onto one full shard must surface
// the engine's own error taxonomy wrapped with the shard index — a visible
// backpressure signal matchable with errors.Is, never a silent tail-drop.
func TestIngestErrorTaxonomy(t *testing.T) {
	s, err := New("WF2Q+", 1e6, 4, []dataplane.Option{dataplane.WithQueueCap(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddClass(0, 1e6); err != nil {
		t.Fatal(err)
	}

	// Unknown class: taxonomy survives the shard wrap.
	err = s.IngestKey(7, 99, mkPayload(99, 0, 64))
	if !errors.Is(err, dataplane.ErrNoClass) {
		t.Fatalf("unknown class: %v, want ErrNoClass", err)
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Fatalf("error %q does not name the shard", err)
	}

	// One flow key pins one shard; its 2-deep queue fills while the other
	// three shards sit empty — the error is per-shard backpressure.
	const key = 11
	for i := 0; i < 2; i++ {
		if err := s.IngestKey(key, 0, mkPayload(0, i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	err = s.IngestKey(key, 0, mkPayload(0, 2, 64))
	if !errors.Is(err, dataplane.ErrQueueFull) {
		t.Fatalf("full shard: %v, want ErrQueueFull", err)
	}
	if s.Backlog() != 2 {
		t.Fatalf("backlog = %d, want the 2 accepted datagrams", s.Backlog())
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestKey(key, 0, mkPayload(0, 3, 64)); !errors.Is(err, dataplane.ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
}

// TestMutationFanout: the control plane speaks whole-link units — absolute
// rates and ceilings divide by N on the way in and the merged Status sums
// them back, while every shard holds exactly its 1/N slice.
func TestMutationFanout(t *testing.T) {
	const n = 4
	s, err := New("WF2Q+", 8e6, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddClass(0, 4e6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if r := s.Shard(i).Status().Classes[0].Rate; r != 1e6 {
			t.Fatalf("shard %d class rate = %g, want 1e6 (4e6/%d)", i, r, n)
		}
	}
	st := s.Status()
	if st.Shards != n || st.Rate != 8e6 || st.Classes[0].Rate != 4e6 {
		t.Fatalf("merged: shards=%d rate=%g class0=%g, want 4/8e6/4e6",
			st.Shards, st.Rate, st.Classes[0].Rate)
	}

	if err := s.SetRate(0, 2e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCeil(0, 4e6); err != nil {
		t.Fatal(err)
	}
	st = s.Status()
	if st.Classes[0].Rate != 2e6 || st.Classes[0].Ceil != 4e6 {
		t.Fatalf("after retune: rate=%g ceil=%g, want 2e6/4e6", st.Classes[0].Rate, st.Classes[0].Ceil)
	}
	if r := s.Shard(2).Status().Classes[0].Rate; r != 5e5 {
		t.Fatalf("shard 2 rate = %g after SetRate, want 5e5", r)
	}

	// Validation failures surface from shard 0 before any shard changed.
	if err := s.SetRate(9, 1e6); !errors.Is(err, dataplane.ErrNoClass) {
		t.Fatalf("SetRate on unknown class: %v, want ErrNoClass", err)
	}
	if err := s.RemoveClass(0); err != nil {
		t.Fatal(err)
	}
	if ids := s.Classes(); len(ids) != 0 {
		t.Fatalf("classes after removal = %v, want none", ids)
	}
}

// TestMutationDivergenceDetected: mutating a Shard(i) handle directly voids
// the all-shards-identical invariant; the next front mutation that trips
// over it must say so loudly instead of leaving the shards half-applied.
func TestMutationDivergenceDetected(t *testing.T) {
	s, err := New("WF2Q+", 2e6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Bypass the front: shard 1 now has a class shard 0 lacks.
	if err := s.Shard(1).AddClass(5, 1e3); err != nil {
		t.Fatal(err)
	}
	err = s.AddClass(5, 2e6) // shard 0 accepts, shard 1 refuses the duplicate
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("front mutation over diverged shards: %v, want a divergence error", err)
	}
}

// TestFECRefusalKeepsShardsIdentical: a ProtectClass whose repair id is
// taken is refused on shard 0 before any shard changes, so every shard
// keeps the same class set, none protects the class, and a retry repeats
// the refusal instead of tripping over a half-applied fan-out.
func TestFECRefusalKeepsShardsIdentical(t *testing.T) {
	spec, err := fec.ParseSpec("xor-4")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("WF2Q+", 2e6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddClass(dataplane.DefaultRepairClassOffset, 2e5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass(0, 1e6); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		err := s.ProtectClass(0, spec, dataplane.FECConfig{MaxBlockAge: -1})
		if err == nil || !strings.Contains(err.Error(), "repair class 1000 already exists") {
			t.Fatalf("try %d: ProtectClass(0) = %v, want the repair-id refusal", try, err)
		}
		for i := 0; i < s.Shards(); i++ {
			st := s.Shard(i).Status()
			if len(st.Classes) != 2 || st.FEC != nil {
				t.Fatalf("try %d: shard %d classes %+v, FEC %+v; want [0 1000] unprotected on every shard", try, i, st.Classes, st.FEC)
			}
		}
	}
}

// TestSplitterLendsIdleSlices: with one shard backlogged and one idle, the
// splitter lends the idle slice — the busy shard paces at ~2× its base while
// the idle shard keeps its guarantee armed — and Close restores every shard
// to base.
func TestSplitterLendsIdleSlices(t *testing.T) {
	const (
		rate = 2e6
		base = 1e6
	)
	s, err := New("WF2Q+", rate, 2, nil, WithSplitTick(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass(0, rate); err != nil {
		t.Fatal(err)
	}
	const busyKey = 0
	busy := s.ShardOf(busyKey)
	idle := 1 - busy
	// 300 × 1000-bit datagrams: ≥0.1 s of backlog even at the doubled pace.
	for i := 0; i < 300; i++ {
		if err := s.IngestKey(busyKey, 0, mkPayload(0, i, 125)); err != nil {
			t.Fatal(err)
		}
	}
	writers := []*classCountWriter{newClassCountWriter(), newClassCountWriter()}
	if err := s.Start(func(i int) dataplane.Writer { return writers[i] }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Shard(busy).PaceRate() < 1.5*base {
		if time.Now().After(deadline) {
			t.Fatalf("busy shard pace = %g, want ≈%g (idle slice lent)",
				s.Shard(busy).PaceRate(), 2*base)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Shard(busy).PaceRate(); got > 2*base+1 {
		t.Fatalf("busy shard pace = %g, exceeds base+lent slice %g", got, 2*base)
	}
	if got := s.Shard(idle).PaceRate(); got != base {
		t.Fatalf("idle shard pace = %g, want its base %g kept armed", got, base)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := s.Shard(i).PaceRate(); got != base {
			t.Fatalf("shard %d pace = %g after Close, want base restored", i, got)
		}
	}
	if got := writers[busy].count(0); got != 300 {
		t.Fatalf("delivered %d of 300 staged datagrams through the drain", got)
	}
}

// TestFairnessAcrossShards: one class spanning both shards still gets its
// configured aggregate share. Both classes stay backlogged on both shards
// (so the splitter no-ops and each shard paces at base), and the summed
// egress splits 75/25 within ε — Theorem 1's share guarantee, preserved by
// giving every shard 1/N of each class's rate.
func TestFairnessAcrossShards(t *testing.T) {
	const (
		size    = 125 // 1000 bits
		perFill = 400
	)
	clk := wallclock.NewFake()
	s, err := New("WF2Q+", 1e6, 2,
		[]dataplane.Option{dataplane.WithClock(clk), dataplane.WithMetrics()},
		WithSplitTick(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass(0, 7.5e5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass(1, 2.5e5); err != nil {
		t.Fatal(err)
	}
	// Both classes backlogged on both shards: the class spans the shard set.
	for i := 0; i < s.Shards(); i++ {
		for k := 0; k < perFill; k++ {
			if err := s.Shard(i).Ingest(0, mkPayload(0, k, size)); err != nil {
				t.Fatal(err)
			}
			if err := s.Shard(i).Ingest(1, mkPayload(1, k, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	writers := []*classCountWriter{newClassCountWriter(), newClassCountWriter()}
	if err := s.Start(func(i int) dataplane.Writer { return writers[i] }); err != nil {
		t.Fatal(err)
	}
	total := func() int64 { return writers[0].total() + writers[1].total() }
	// ~0.5 s virtual at 1e6 bit/s → ~500 of the 1600 staged datagrams out;
	// every queue is still backlogged, so the shares are steady-state.
	advanceUntil(t, clk, 5*time.Millisecond, func() bool { return total() >= 500 })
	c0 := writers[0].count(0) + writers[1].count(0)
	c1 := writers[0].count(1) + writers[1].count(1)
	share := float64(c0) / float64(c0+c1)
	if share < 0.675 || share > 0.825 {
		t.Fatalf("class 0 aggregate share = %.3f (%d vs %d), want 0.75 ± 10%%", share, c0, c1)
	}
	// Each shard served ~half the total: equal base paces, no splitter skew.
	for i, w := range writers {
		if f := float64(w.total()) / float64(total()); f < 0.4 || f > 0.6 {
			t.Fatalf("shard %d served %.3f of the aggregate, want ≈0.5", i, f)
		}
	}
	closeDraining(t, s, clk)
	if m := s.Snapshot(); !m.Conserved() {
		t.Error("merged metrics not conserved after drain")
	}
}
