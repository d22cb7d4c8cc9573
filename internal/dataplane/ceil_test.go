package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfq/internal/errs"
	"hpfq/internal/fec"
	"hpfq/internal/overload"
	"hpfq/internal/pifo"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// stepClock is a fake clock advanced only while the pump is parked: a step
// jumps to the pump's pending wakeup and waits for it to park again, so a
// whole batch — dequeue and write — runs at one instant and every egress
// stamp equals its departure time at the scheduler. onPark, when set, sees
// each sleep the pump asks for before it blocks. A sleep that busy reports
// will be cut short (a wake nudge is pending) is no park: the pump runs on
// and parks again. A timer of exactly held (set to the overload monitor's
// sample interval) is never armed, so that monitor never samples and a test
// samples by hand.
type stepClock struct {
	*wallclock.Fake
	parked chan struct{}
	onPark func(dur time.Duration)
	busy   func() bool
	held   time.Duration

	mu     sync.Mutex
	wakeAt time.Duration
}

func newStepClock() *stepClock {
	return &stepClock{Fake: wallclock.NewFake(), parked: make(chan struct{}, 1)}
}

func (c *stepClock) AfterFunc(dur time.Duration, fn func()) {
	if c.held > 0 && dur == c.held {
		return
	}
	c.Fake.AfterFunc(dur, fn)
	if c.busy != nil && c.busy() {
		return
	}
	if c.onPark != nil {
		c.onPark(dur)
	}
	c.mu.Lock()
	c.wakeAt = c.Elapsed() + dur
	c.mu.Unlock()
	select {
	case c.parked <- struct{}{}:
	default:
	}
}

// pending returns the instant the parked pump wakes at.
func (c *stepClock) pending() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wakeAt
}

// forget drops a park notice older than the action about to be taken.
func (c *stepClock) forget() {
	select {
	case <-c.parked:
	default:
	}
}

// settle waits until the pump parks on a timer (true) or idle reports that
// it has nothing left to do (false). A stall fails the test, prefixed with
// what.
func (c *stepClock) settle(t *testing.T, what string, idle func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-c.parked:
			return true
		case <-time.After(200 * time.Microsecond):
			if idle() {
				return false
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: pump neither parked nor went idle", what)
			}
		}
	}
}

// egressRec is one written datagram: its fake-clock write instant, class,
// per-class sequence number and size.
type egressRec struct {
	at    time.Duration
	class int
	seq   int
	bits  float64
}

// egressLog records every datagram with the fake-clock instant of its
// write.
type egressLog struct {
	clk  *stepClock
	mu   sync.Mutex
	recs []egressRec
}

func (w *egressLog) WritePacket(b []byte) (int, error) {
	at := w.clk.Elapsed()
	w.mu.Lock()
	w.recs = append(w.recs, egressRec{at, int(b[0]), int(binary.BigEndian.Uint32(b[1:5])), float64(len(b) * 8)})
	w.mu.Unlock()
	return len(b), nil
}

func (w *egressLog) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

func (w *egressLog) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}

// seqPayload is a datagram of class with a 32-bit per-class sequence number.
func seqPayload(class, seq, size int) []byte {
	b := make([]byte, size)
	b[0] = byte(class)
	binary.BigEndian.PutUint32(b[1:5], uint32(seq))
	return b
}

// worstWindow returns the most bits the given classes sent together within
// any closed window [t, t+w], over the records from index from to to.
func worstWindow(recs []egressRec, from, to int, w time.Duration, classes map[int]bool) float64 {
	var worst, sum float64
	j := from
	for i := from; i < to; i++ {
		if !classes[recs[i].class] {
			continue
		}
		for ; j < to && recs[j].at <= recs[i].at+w; j++ {
			if classes[recs[j].class] {
				sum += recs[j].bits
			}
		}
		worst = max(worst, sum)
		sum -= recs[i].bits
	}
	return worst
}

// TestCeilHoldsAtEgress: a ceiling bounds what leaves the engine, not what
// enters the scheduler. Class 0 (1 Mb/s guaranteed, 3 Mb/s ceiling) shares a
// 10 Mb/s WF²Q+ link with the uncapped 9 Mb/s class 1, both deeply
// backlogged. In every 100 ms window of egress class 0 may send at most
// ceil·w + BucketDepth(ceil) + L_max bits. A gate that checks the ceiling
// as packets enter the scheduler lets them pile up there and leave in
// bursts above that.
func TestCeilHoldsAtEgress(t *testing.T) {
	const (
		size = 1250
		ceil = 3e6
		win  = 100 * time.Millisecond
	)
	clk := newStepClock()
	d, err := New("WF2Q+", 10e6, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e6)
	d.AddClass(1, 9e6)
	if err := d.SetCeil(0, ceil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		if i < 300 {
			d.Ingest(0, seqPayload(0, i, size))
		}
		d.Ingest(1, seqPayload(1, i, size))
	}
	w := &egressLog{clk: clk}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	idle := func() bool { return w.len() == 1200 }
	for clk.settle(t, t.Name(), idle) {
		clk.Advance(clk.pending() - clk.Elapsed())
	}
	closeDraining(t, d, clk.Fake)
	bound := ceil*win.Seconds() + pifo.BucketDepth(ceil) + size*8
	if got := worstWindow(w.recs, 0, len(w.recs), win, map[int]bool{0: true}); got > bound {
		t.Fatalf("class 0 sent %.0f bits in a %v window, ceiling bound %.0f", got, win, bound)
	}
}

// TestCeilHoldKeepsPumpAlive: a ceiling far below L_max/watchdog holds a
// backlog for 750 ms per datagram (1500 bytes at 16 kb/s), and the pump
// must still wake often enough that the watchdog, sampling every 5 ms while
// the pump is parked, never sees a stale heartbeat: no stall, the engine
// stays healthy. A partial FEC block on another class opened during a hold
// flushes at its deadline, not at the pump's next hold wakeup.
func TestCeilHoldKeepsPumpAlive(t *testing.T) {
	const (
		watchdog = 50 * time.Millisecond
		blockAge = 15 * time.Millisecond
		size     = 1500
	)
	clk := newStepClock()
	clk.held = overload.SampleInterval // the monitor's timer; the test samples by hand
	spec := fec.Spec{Scheme: fec.SchemeRS, K: 4, R: 2}
	d, err := New("WF2Q+", 1e6, WithClock(clk), WithOverload(), WithWatchdog(watchdog))
	if err != nil {
		t.Fatal(err)
	}
	clk.busy = func() bool { return len(d.wake) > 0 }
	d.AddClass(0, 5e5)
	d.AddClass(1, 4e5)
	if err := d.ProtectClass(1, spec, FECConfig{MaxBlockAge: blockAge}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetCeil(0, 16e3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		d.Ingest(0, seqPayload(0, i, size))
	}
	w := &egressLog{clk: clk}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}
	idle := func() bool { return d.Backlog() == 0 } // only if a stall shed class 0
	var maxAge time.Duration
	opened := time.Duration(-1)
	for parked := clk.settle(t, t.Name(), idle); parked && clk.Elapsed() < 2*time.Second; parked = clk.settle(t, t.Name(), idle) {
		if opened < 0 && clk.Elapsed() >= time.Second {
			// A partial block on class 1 while class 0 is held.
			clk.forget()
			opened = clk.Elapsed()
			d.Ingest(1, fecPayload(1, 0, 100))
			continue
		}
		for wake := clk.pending(); clk.Elapsed() < wake; {
			clk.Advance(min(5*time.Millisecond, wake-clk.Elapsed()))
			if clk.Elapsed() < wake {
				maxAge = max(maxAge, d.heartbeatAge())
				d.sampleOnce()
				if h := d.Health(); h.WatchdogStalls != 0 {
					t.Fatalf("held backlog read as a stall at %v: heartbeat %v old, state %v", clk.Elapsed(), maxAge, h.State)
				}
			}
		}
	}
	if st := d.HealthState(); st != overload.Healthy {
		t.Errorf("state %v under a held backlog, want healthy", st)
	}
	if maxAge > maxHoldWait {
		t.Errorf("heartbeat went %v stale while the pump was parked, want <= %v", maxAge, maxHoldWait)
	}
	// The source and its block's repairs, by the block's deadline.
	deadline := opened + blockAge + minWait + time.Microsecond
	small := 0
	w.mu.Lock()
	for _, r := range w.recs {
		if r.bits < size*8 && r.at <= deadline {
			small++
		}
	}
	w.mu.Unlock()
	if opened < 0 || small != 1+spec.R {
		t.Errorf("class 1 wrote %d datagrams by its block deadline %v, want %d", small, deadline, 1+spec.R)
	}
	closeDraining(t, d, clk.Fake)
}

// TestCeilRefusedWithoutShaping: FIFO and WF2Q+fixed have no node form, so
// no engine can host them — flat or over a topology, with or without a
// ceiling — and New refuses them with ErrNoNodeForm, naming the algorithm.
func TestCeilRefusedWithoutShaping(t *testing.T) {
	top, _ := topo.Parse("root=1(a=1^1e6:0,b=1:1)")
	for _, algo := range []string{"FIFO", "WF2Q+fixed"} {
		for _, opts := range [][]Option{nil, {WithTopology(top)}} {
			d, err := New(algo, 10e6, opts...)
			if d != nil || !errors.Is(err, errs.ErrNoNodeForm) || !strings.Contains(err.Error(), algo) {
				t.Errorf("%s: New = %v, want ErrNoNodeForm naming the algorithm", algo, err)
			}
		}
	}
}

// capEntity is one capped class or topology node of a property-test case
// and the ceilings it ran under: segs[i] holds from egress record
// segs[i].from until the next segment starts.
type capEntity struct {
	name    string // topology node name; "" for a flat class
	class   int    // flat class id, or the leaf's session; -1 for interior
	classes map[int]bool
	rate    float64 // guaranteed rate
	segs    []ceilSeg
}

type ceilSeg struct {
	ceil float64
	from int
}

func (e *capEntity) ceil() float64 { return e.segs[len(e.segs)-1].ceil }

// ceilLmax is the largest datagram a property-test case sends, in bits.
const ceilLmax = 1500 * 8

// ceilCase is one randomly drawn engine, arrival script and ceiling-flip
// script.
type ceilCase struct {
	seed   uint64
	rng    *rand.Rand
	rate   float64
	levels int
	d      *Dataplane
	clk    *stepClock
	w      *egressLog
	ents   []*capEntity
	sent   map[int]int // datagrams ingested per class
	total  int
	viol   error // first pump sleep past the next release
	violMu sync.Mutex
}

func (c *ceilCase) fail(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf("seed %d: %s", c.seed, fmt.Sprintf(format, args...))
}

// drawCeil returns a ceiling for an entity guaranteed rate: anywhere from
// well below the guarantee to above it.
func (c *ceilCase) drawCeil(rate float64) float64 {
	return rate * (0.2 + 1.3*c.rng.Float64())
}

// build draws a flat or topology engine with ceilings on some of its
// classes and nodes.
func (c *ceilCase) build(t *testing.T) {
	c.rate = 5e6 + 10e6*c.rng.Float64()
	c.clk = newStepClock()
	c.sent = map[int]int{}
	var opts []Option
	opts = append(opts, WithClock(c.clk), WithMetrics())
	live := map[*capEntity]bool{}  // set through setCeil after New
	early := map[*capEntity]bool{} // set as each class or the tree comes up
	if c.rng.IntN(2) == 0 {
		algos := []string{"WF2Q+", "SCFQ", "SFQ", "DRR"}
		algo := algos[c.rng.IntN(len(algos))]
		c.levels = 1
		k := 2 + c.rng.IntN(4)
		weights := make([]float64, k)
		var sum float64
		for i := range weights {
			weights[i] = 0.2 + c.rng.Float64()
			sum += weights[i]
		}
		for i := range weights {
			e := &capEntity{class: i, classes: map[int]bool{i: true}, rate: 0.95 * c.rate * weights[i] / sum}
			c.ents = append(c.ents, e)
			if c.rng.IntN(2) == 0 {
				e.segs = []ceilSeg{{c.drawCeil(e.rate), 0}}
				if c.rng.IntN(2) == 0 {
					early[e] = true
				} else {
					live[e] = true
				}
			}
		}
		d, err := New(algo, c.rate, opts...)
		if err != nil {
			c.fail(t, "%v", err)
		}
		for _, e := range c.ents {
			if err := d.AddClass(e.class, e.rate); err != nil {
				c.fail(t, "%v", err)
			}
			if early[e] {
				if err := d.SetCeil(e.class, e.ceil()); err != nil {
					c.fail(t, "%v", err)
				}
			}
		}
		c.d = d
	} else {
		session := 0
		var grow func(name string, depth int) *topo.Node
		grow = func(name string, depth int) *topo.Node {
			share := 0.5 + c.rng.Float64()
			if depth > 0 && (depth == 3 || c.rng.IntN(3) == 0) {
				session++
				return topo.Leaf(fmt.Sprintf("l%d", session-1), share, session-1)
			}
			n := topo.Interior(name, share)
			for i := 0; i < 2+c.rng.IntN(2); i++ {
				n.Children = append(n.Children, grow(fmt.Sprintf("%s.%d", name, i), depth+1))
			}
			n.Policy = []string{"", "", "SCFQ", "DRR"}[c.rng.IntN(4)]
			return n
		}
		top := grow("root", 0)
		c.levels = top.Depth()
		rates := top.Rates(c.rate)
		top.Walk(func(n *topo.Node, _ int) {
			e := &capEntity{name: n.Name, class: -1, classes: map[int]bool{}, rate: rates[n]}
			if n.IsLeaf() {
				e.class = n.Session
			}
			for _, l := range n.Leaves() {
				e.classes[l.Session] = true
			}
			c.ents = append(c.ents, e)
			// The root caps the whole link; draw it rarely and near the top.
			if n.Name == "root" {
				if c.rng.IntN(8) == 0 {
					e.segs = []ceilSeg{{c.rate * (0.5 + 0.4*c.rng.Float64()), 0}}
					n.Ceil = e.ceil()
				}
				return
			}
			if c.rng.IntN(2) != 0 {
				return
			}
			e.segs = []ceilSeg{{c.drawCeil(e.rate), 0}}
			switch c.rng.IntN(3) {
			case 0:
				n.Ceil = e.ceil()
			case 1:
				early[e] = true
			default:
				live[e] = true
			}
		})
		d, err := New("WF2Q+", c.rate, append(opts, WithTopology(top))...)
		if err != nil {
			c.fail(t, "%v", err)
		}
		for _, e := range c.ents {
			if !early[e] {
				continue
			}
			if e.class >= 0 {
				err = d.SetCeil(e.class, e.ceil())
			} else {
				err = d.SetNodeCeil(e.name, e.ceil())
			}
			if err != nil {
				c.fail(t, "%v", err)
			}
		}
		c.d = d
	}
	for _, e := range c.ents {
		if live[e] {
			c.setCeil(t, e, e.ceil())
		}
	}
	c.w = &egressLog{clk: c.clk}
	c.clk.onPark = c.checkPark
	c.clk.busy = func() bool { return len(c.d.wake) > 0 }
}

// setCeil applies a ceiling through the live API: SetCeil for a class,
// SetNodeCeil for a named node (leaves either way).
func (c *ceilCase) setCeil(t *testing.T, e *capEntity, ceil float64) {
	var err error
	if e.class >= 0 && (e.name == "" || c.rng.IntN(2) == 0) {
		err = c.d.SetCeil(e.class, ceil)
	} else {
		err = c.d.SetNodeCeil(e.name, ceil)
	}
	if err != nil {
		c.fail(t, "set ceil %g on %q/%d: %v", ceil, e.name, e.class, err)
	}
}

// checkPark runs on the pump goroutine before each sleep: the pump may
// sleep past the scheduler's next release only while the link bucket is
// repaying the one packet the last batch overdrew (or for minWait).
func (c *ceilCase) checkPark(dur time.Duration) {
	c.d.smu.Lock()
	at, held := c.d.tree.NextRelease()
	c.d.smu.Unlock()
	limit := max(minWait, time.Duration(ceilLmax/c.rate*float64(time.Second))+time.Microsecond)
	if held {
		limit = max(limit, time.Duration(math.Ceil((at-c.d.now())*float64(time.Second)))+time.Microsecond)
	}
	if dur > limit {
		c.violMu.Lock()
		if c.viol == nil {
			c.viol = fmt.Errorf("pump slept %v at %v, next release %.6fs (held %v)", dur, c.clk.Elapsed(), at, held)
		}
		c.violMu.Unlock()
	}
}

// ingestWave stages a burst of random-size datagrams on every class. The
// scheduler lock keeps a woken pump from staging the burst piecemeal.
func (c *ceilCase) ingestWave(t *testing.T) {
	c.d.smu.Lock()
	defer c.d.smu.Unlock()
	ids := c.d.Classes()
	sort.Ints(ids)
	for _, id := range ids {
		for i := c.rng.IntN(25); i >= 0; i-- {
			size := 64 + c.rng.IntN(ceilLmax/8-63)
			if err := c.d.Ingest(id, seqPayload(id, c.sent[id], size)); err != nil {
				c.fail(t, "ingest: %v", err)
			}
			c.sent[id]++
			c.total++
		}
	}
}

func (c *ceilCase) idle() bool { return c.w.len() == c.total && c.d.Backlog() == 0 }

// run drives one case: a first wave, the engine started, a second wave,
// random ceiling flips, and a final lift of every ceiling, then checks the
// invariants.
func (c *ceilCase) run(t *testing.T) {
	c.build(t)
	c.ingestWave(t)
	if err := c.d.Start(c.w); err != nil {
		c.fail(t, "%v", err)
	}
	// An event reports whether it acted: every action nudges the pump
	// once, which then parks again or goes idle.
	type event struct {
		at time.Duration
		do func() bool
	}
	var events []event
	span := 400 * time.Millisecond
	events = append(events, event{time.Duration(c.rng.Int64N(int64(span))), func() bool { c.ingestWave(t); return true }})
	for i := c.rng.IntN(5); i > 0; i-- {
		e := c.ents[c.rng.IntN(len(c.ents))]
		if e.name == "root" && e.segs == nil {
			continue // the root is capped only from the start
		}
		ceil := 0.0
		if c.rng.IntN(3) != 0 {
			ceil = c.drawCeil(e.rate)
		}
		events = append(events, event{time.Duration(c.rng.Int64N(int64(span))), func() bool {
			if ceil == 0 && (e.segs == nil || e.ceil() == 0) {
				return false
			}
			c.setCeil(t, e, ceil)
			e.segs = append(e.segs, ceilSeg{ceil, c.w.len()})
			return true
		}})
	}
	var liftAt time.Duration
	var liftBits float64
	// The final lift: measure the backlog while the pump is still parked,
	// lift each ceiling, then nothing may stay held.
	lift := span + time.Duration(c.rng.Int64N(int64(span)))
	events = append(events, event{lift, func() bool {
		for _, id := range c.d.Classes() {
			_, b := queued(c.d, id)
			liftBits += float64(b * 8)
		}
		liftAt = c.clk.Elapsed()
		return false
	}})
	for _, e := range c.ents {
		events = append(events, event{lift, func() bool {
			if e.segs == nil || e.ceil() == 0 {
				return false
			}
			c.setCeil(t, e, 0)
			e.segs = append(e.segs, ceilSeg{0, c.w.len()})
			return true
		}})
	}
	events = append(events, event{lift, func() bool {
		c.d.smu.Lock()
		_, held := c.d.tree.NextRelease()
		c.d.smu.Unlock()
		if held || c.d.Status().Borrowing {
			c.fail(t, "held back with every ceiling lifted (held %v)", held)
		}
		return false
	}})
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	what := fmt.Sprintf("seed %d", c.seed)
	deadline := time.Now().Add(20 * time.Second)
	parked := c.clk.settle(t, what, c.idle)
	for len(events) > 0 || parked {
		if time.Now().After(deadline) {
			c.fail(t, "run did not finish: %d of %d datagrams written", c.w.len(), c.total)
		}
		// An event due before the pump's wakeup runs while it stays
		// parked; one due at the wakeup waits for the pump's batch.
		if len(events) > 0 && (!parked || events[0].at < c.clk.pending()) {
			ev := events[0]
			events = events[1:]
			if ev.at > c.clk.Elapsed() {
				c.clk.Advance(ev.at - c.clk.Elapsed())
			}
			c.clk.forget()
			if !ev.do() {
				continue
			}
		} else {
			c.clk.Advance(c.clk.pending() - c.clk.Elapsed())
		}
		parked = c.clk.settle(t, what, c.idle)
	}
	done := c.clk.Elapsed()
	closeDraining(t, c.d, c.clk.Fake)
	if c.viol != nil {
		c.fail(t, "%v", c.viol)
	}
	c.check(t, liftAt, liftBits, done)
}

// check asserts conservation, per-class order, the ceiling bound of every
// capped entity over every window, and a link-rate drain once every
// ceiling is lifted.
func (c *ceilCase) check(t *testing.T, liftAt time.Duration, liftBits float64, done time.Duration) {
	recs := c.w.recs
	if m := c.d.Snapshot(); len(recs) != c.total || m.Dropped.Packets != 0 || m.Dequeued.Packets != int64(c.total) {
		c.fail(t, "conservation: wrote %d, dequeued %d, dropped %d of %d", len(recs), m.Dequeued.Packets, m.Dropped.Packets, c.total)
	}
	next := map[int]int{}
	for _, r := range recs {
		if r.seq != next[r.class] {
			c.fail(t, "class %d wrote seq %d, want %d", r.class, r.seq, next[r.class])
		}
		next[r.class]++
	}
	for _, e := range c.ents {
		for i, s := range e.segs {
			to := len(recs)
			if i+1 < len(e.segs) {
				to = e.segs[i+1].from
			}
			if s.ceil == 0 {
				continue
			}
			for _, win := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
				bound := s.ceil*win.Seconds() + pifo.BucketDepth(s.ceil) + float64(c.levels)*ceilLmax
				if got := worstWindow(recs, s.from, to, win, e.classes); got > bound {
					c.fail(t, "%q/%d sent %.0f bits in a %v window under ceil %g (bound %.0f)", e.name, e.class, got, win, s.ceil, bound)
				}
			}
		}
	}
	if liftBits > 0 {
		if took, want := done-liftAt, time.Duration(liftBits/c.rate*float64(time.Second)); took > want+want/20+5*time.Millisecond {
			c.fail(t, "drain after lifting every ceiling took %v for %.0f bits, want about %v", took, liftBits, want)
		}
	}
}

// TestCeilProperty draws random flat and topology engines with ceilings —
// below and above the guarantee, on leaves, interior nodes and now and then
// the root, set by '^ceil' clauses, by SetCeil/SetNodeCeil as the engine
// comes up or before Start, and flipped on and off mid-run —
// and checks conservation, per-class egress order, every ceiling's bound
// over every window, that nothing stays held once the ceilings are lifted,
// and that the pump never sleeps past the scheduler's next release. A
// failure names its seed; HPFQ_CEIL_SEED=n reruns that seed alone.
func TestCeilProperty(t *testing.T) {
	first, last := uint64(1), uint64(200)
	if testing.Short() {
		last = 40
	}
	if s, err := strconv.ParseUint(os.Getenv("HPFQ_CEIL_SEED"), 10, 64); err == nil {
		first, last = s, s
	}
	for seed := first; seed <= last; seed++ {
		c := &ceilCase{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x5eed))}
		c.run(t)
	}
}
