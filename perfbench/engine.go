package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/shard"
	"hpfq/internal/topo"
)

// engine_deep: the scheduler and the engine lock without sockets, on a
// 16×16×16 (4096-leaf) WF²Q+ tree, from one producer goroutine through
// shard.Sharded with one shard to a counting writer. Closed loop: the
// producer blocks on a window of deepWindow slots that the writer releases.
const (
	deepFanout = 16
	deepLeaves = deepFanout * deepFanout * deepFanout
	deepSize   = 64
	deepWindow = 1024
	deepRate   = 1e12 // with a burst as large, pacing never binds
)

// deepSpec is the 4096-leaf topology in topo.Parse syntax.
func deepSpec() string {
	var b strings.Builder
	b.WriteString("root=1(")
	for i := 0; i < deepFanout; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "g%d=1(", i)
		for j := 0; j < deepFanout; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "g%d_%d=1(", i, j)
			for k := 0; k < deepFanout; k++ {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "l%d_%d_%d=1:%d", i, j, k, (i*deepFanout+j)*deepFanout+k)
			}
			b.WriteByte(')')
		}
		b.WriteByte(')')
	}
	b.WriteByte(')')
	return b.String()
}

func deepOptions(top *topo.Node, pool *dataplane.BufferPool) []dataplane.Option {
	return []dataplane.Option{dataplane.WithTopology(top), dataplane.WithBurst(deepRate),
		dataplane.WithBufferPool(pool)}
}

// engSlot is one window slot: the datagram it carries while outstanding.
type engSlot struct {
	idx      uint16
	seq      uint64
	leaf     int
	t0       int64 // ingest time, ns on the run's clock
	released int64 // when the writer last freed the slot; 0 before
	busy     bool
}

// countingWriter is the engine's egress: it checks every datagram against
// its slot, records the ingest-to-write sojourn, and frees the slot. Only
// the pump goroutine calls it; the counters are atomics because the main
// goroutine samples them at window edges.
type countingWriter struct {
	seed   int64
	base   time.Time // the run's clock
	win    window
	traced subs
	free   chan *engSlot

	delivered, batches atomic.Int64
	perLeaf            []atomic.Uint64
	cycle              latChunks // slot round trip: release → next release, by write time
	sojourn            hist      // ingest → write, traced
	gap                hist      // WriteBatch return → next call, traced
	lastReturn         int64
	err                error
}

func (w *countingWriter) WritePacket(b []byte) (int, error) {
	return 0, fmt.Errorf("countingWriter takes batches only")
}

func (w *countingWriter) WriteBatch(pkts []dataplane.Datagram) (int, error) {
	now := time.Since(w.base).Nanoseconds()
	i := w.win.index(now)
	traced := w.traced.has(i)
	if traced && w.lastReturn > 0 {
		w.gap.add(now - w.lastReturn)
	}
	for _, d := range pkts {
		s, _ := d.Ctx.(*engSlot)
		if err := w.check(d.B, s); err != nil {
			if w.err == nil {
				w.err = err
			}
			continue
		}
		if i >= 0 && s.released > 0 {
			w.cycle[i].add(now - s.released)
		}
		if traced {
			w.sojourn.add(now - s.t0)
		}
		w.perLeaf[s.leaf].Add(1)
		s.busy = false
		s.released = now
		w.free <- s
	}
	w.delivered.Add(int64(len(pkts)))
	w.batches.Add(1)
	w.lastReturn = time.Since(w.base).Nanoseconds()
	return len(pkts), nil
}

func (w *countingWriter) check(b []byte, s *engSlot) error {
	if s == nil {
		return fmt.Errorf("datagram without its slot context")
	}
	p, err := verifyDatagram(b, w.seed, deepSize, 0)
	if err != nil {
		return err
	}
	if !s.busy || p.seq != s.seq || p.slot != s.idx || p.class != byte(s.leaf) {
		return fmt.Errorf("seq %d slot %d: duplicate or misrouted (slot holds seq %d busy=%v)", p.seq, p.slot, s.seq, s.busy)
	}
	return nil
}

// deepSetup is one set-up: topo.Parse through Start.
func deepSetup(spec string, w *countingWriter, pool *dataplane.BufferPool) (*shard.Sharded, time.Duration, error) {
	t0 := time.Now()
	top, err := topo.Parse(spec)
	if err != nil {
		return nil, 0, err
	}
	sh, err := shard.New("WF2Q+", deepRate, 1, deepOptions(top, pool))
	if err != nil {
		return nil, 0, err
	}
	if err := sh.Start(func(int) dataplane.Writer { return w }); err != nil {
		return nil, 0, err
	}
	return sh, time.Since(t0), nil
}

func runEngine(cfg config) (*result, error) {
	runtime.GOMAXPROCS(2)
	// With two CPUs the producer gets one to itself and everything else —
	// the pump, the writer, the runtime — shares the other, so the two ends
	// of the loop never migrate onto one core.
	if pinned() {
		if err := pinProcess(sutCPU); err != nil {
			return nil, err
		}
	}
	res := newResult(cfg)
	spec := deepSpec()
	pool := dataplane.NewBufferPool(deepSize)

	base := time.Now()
	win := newWindow(warmup.Nanoseconds(), cfg.seconds)
	untraced, traced := spans(cfg.trace)
	newWriter := func() *countingWriter {
		return &countingWriter{seed: cfg.seed, base: base, win: win, traced: traced,
			free: make(chan *engSlot, deepWindow), perLeaf: make([]atomic.Uint64, deepLeaves)}
	}
	var setups []float64
	var sh *shard.Sharded
	var w *countingWriter
	for i := 0; i < setupLaunches; i++ {
		w = newWriter()
		var d time.Duration
		var err error
		if sh, d, err = deepSetup(spec, w, pool); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		if i < setupLaunches-1 {
			sh.Close()
		}
	}
	res.e2e["setup_s"] = median(setups)
	// The window opens a warm-up after the measured engine started.
	win.start += time.Since(base).Nanoseconds()
	w.win = win

	// The producer: leaves in a seeded order, round-robin.
	order := make([]int, deepLeaves)
	for i := range order {
		order[i] = i
	}
	for i := deepLeaves - 1; i > 0; i-- {
		j := int(mix(uint64(cfg.seed)^uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	slots := make([]engSlot, deepWindow)
	for i := range slots {
		slots[i].idx = uint16(i)
		w.free <- &slots[i]
	}
	var stop atomic.Bool
	var ingested atomic.Int64
	var ingestHist hist
	var prodErr error
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		if pinned() {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if err := setAffinity(0, loadCPU); err != nil {
				prodErr = err
				return
			}
		}
		for seq := uint64(0); ; seq++ {
			s := <-w.free
			if stop.Load() {
				w.free <- s
				return
			}
			leaf := order[seq%deepLeaves]
			b := pool.Get()[:deepSize]
			fillDatagram(b, cfg.seed, byte(leaf), 0, s.idx, seq)
			s.seq, s.leaf, s.busy = seq, leaf, true
			t := time.Since(base).Nanoseconds()
			s.t0 = t
			err := sh.IngestKeyCtx(uint64(leaf), leaf, b, s)
			if i := win.index(t); traced.has(i) {
				ingestHist.add(time.Since(base).Nanoseconds() - t)
			}
			if err != nil {
				prodErr = fmt.Errorf("ingest seq %d: %w", seq, err)
				pool.Put(b)
				return
			}
			ingested.Add(1)
		}
	}()

	marks := make([]engMark, nChunks+1)
	for i := range marks {
		sleepUntil(base, win.edge(i))
		m := engMark{t: time.Now(), in: ingested.Load(), out: w.delivered.Load(),
			batches: w.batches.Load(), cpu: selfCPUNs(), leaves: make([]uint64, deepLeaves)}
		m.steal, m.ticks = hostTicks()
		for l := range m.leaves {
			m.leaves[l] = w.perLeaf[l].Load()
		}
		if cfg.trace && (i == traced.start() || i == traced.end()) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			m.mallocs = ms.Mallocs
		}
		marks[i] = m
	}
	res.report("peak_rss_mb", peakRSSMB(os.Getpid()), "MB")
	stop.Store(true)
	prodWG.Wait()

	// Correctness gate: every slot must come home.
	returned := 0
	timeout := time.After(2 * time.Second)
collect:
	for returned < deepWindow {
		select {
		case <-w.free:
			returned++
		case <-timeout:
			break collect
		}
	}
	sh.Close()
	in, out := ingested.Load(), w.delivered.Load()
	res.attempted, res.failed = in, in-out
	if prodErr != nil {
		return res, prodErr
	}
	if w.err != nil {
		return res, fmt.Errorf("writer: %w", w.err)
	}
	if returned != deepWindow || in != out {
		return res, fmt.Errorf("ingested %d, written %d, %d of %d window slots never returned",
			in, out, deepWindow-returned, deepWindow)
	}

	// End-to-end metrics: trimmed means over the least-stolen untraced
	// sub-windows.
	kpps := func(i int) float64 {
		return float64(marks[i+1].out-marks[i].out) / marks[i+1].t.Sub(marks[i].t).Seconds() / 1e3
	}
	var steal, ticks []int64
	for _, m := range marks {
		steal, ticks = append(steal, m.steal), append(ticks, m.ticks)
	}
	shares := stealShares(steal, ticks)
	use := quietest(untraced, shares)
	res.note("host steal per sub-window (%%): %s; figures from sub-windows %v", percents(shares), use)
	res.e2e["kpps"] = centralOver(use, kpps)
	res.e2e["cpu_us_per_pkt"] = centralOver(use, func(i int) float64 {
		return float64(marks[i+1].cpu-marks[i].cpu) / 1e3 / float64(marks[i+1].in-marks[i].in)
	})
	res.e2e["lat_p50_us"] = w.cycle.quantile(use, 0.50) / 1e3
	res.e2e["lat_p90_us"] = w.cycle.quantile(use, 0.90) / 1e3
	res.report("lat_p99_us", w.cycle.all(use).quantile(0.99)/1e3, "us")
	m0, m1 := marks[untraced.start()], marks[untraced.end()]
	share, err := deepShareMin(spec, order, m0, m1, m1.t.Sub(m0.t).Seconds())
	if err != nil {
		return res, err
	}
	res.e2e["share_min_pct"] = share
	res.note("engine_deep: %d leaves, window %d, %d-byte datagrams, %d slot round-trip samples, %d datagrams in all",
		deepLeaves, deepWindow, deepSize, w.cycle.samples(use), in)

	res.note("p90 | p99 per sub-window (µs): %s | %s", w.cycle.describe(0.90), w.cycle.describe(0.99))

	if cfg.trace {
		res.layer["trace.overhead_pct"] = 100 * (1 - centralOver(quietest(traced, shares), kpps)/centralOver(use, kpps))
		t0, t1 := marks[traced.start()], marks[traced.end()]
		n := float64(t1.out - t0.out)
		res.layer["shard.ingest_ns"] = ingestHist.mean()
		res.layer["shard.ingest_p99_ns"] = ingestHist.quantile(0.99)
		res.layer["dataplane.pump_gap_us"] = w.gap.mean() / 1e3
		res.layer["dataplane.batch_avg"] = n / float64(t1.batches-t0.batches)
		res.layer["dataplane.sojourn_p50_us"] = w.sojourn.quantile(0.50) / 1e3
		res.layer["dataplane.sojourn_p99_us"] = w.sojourn.quantile(0.99) / 1e3
		res.layer["dataplane.allocs_per_pkt"] = float64(t1.mallocs-t0.mallocs) / n
		if err := runLayerProbes(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// engMark is a snapshot at a window edge.
type engMark struct {
	t                time.Time
	in, out, batches int64
	cpu              int64
	steal, ticks     int64 // host CPU ticks
	mallocs          uint64
	leaves           []uint64 // datagrams written per leaf
}

// deepShareMin judges every leaf: demand is what the producer offered it
// in the window, achieved what the writer saw, the ideal the H-GPS fluid
// allocation of the link over the 4096-leaf tree.
func deepShareMin(spec string, order []int, m0, m1 engMark, secs float64) (float64, error) {
	top, err := topo.Parse(spec)
	if err != nil {
		return 0, err
	}
	const bits = deepSize * 8
	demand, achieved := map[int]float64{}, map[int]float64{}
	judged := make([]int, 0, deepLeaves)
	for seq := m0.in; seq < m1.in; seq++ {
		demand[order[seq%deepLeaves]] += bits / secs
	}
	for leaf := 0; leaf < deepLeaves; leaf++ {
		achieved[leaf] = float64(m1.leaves[leaf]-m0.leaves[leaf]) * bits / secs
		judged = append(judged, leaf)
	}
	ideal, err := idealRates(top, deepRate, demand)
	if err != nil {
		return 0, err
	}
	return shareMinPct(achieved, ideal, judged), nil
}
