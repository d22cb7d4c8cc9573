package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/fec"
)

// gw_tree_fec: the paper's scenario through the production path. An
// open-loop generator offers 1.5× a 20 Mb/s paced link to the H-WF²Q+ tree
// below: the rt leaf sends at 80% of its guarantee, a (RS(8,2)-protected),
// b and c are greedy and tail-drop at a small -queuecap.
const (
	treeSize     = 1000
	treeLink     = 20e6
	treeSpec     = "root=1(rt=1:0,agg=3(a=1!rs-8-2:1,b=1:2,c=1:3))"
	treeRT       = 0
	treeRTRate   = 0.8 * treeLink / 4 // rt's guarantee is 1/4 of the link
	treeOffered  = 1.5 * treeLink
	treeQueueCap = 16
	treeWarmup   = 2 * time.Second
	statusEvery  = 200 * time.Millisecond // /api/status poll under load
	probeStream  = 1                      // set-up probes; the schedule is stream 0
)

var treeGreedy = []int{1, 2, 3} // a, b, c

var treeArgs = []string{
	"-shards", "1", "-classify", "byte0", "-rate", fmt.Sprint(treeLink),
	"-topo", treeSpec, "-queuecap", fmt.Sprint(treeQueueCap),
	"-metrics", "-admin", "127.0.0.1:0",
}

// slotDue is one scheduled datagram.
type slotDue struct {
	due   int64 // ns after the generator's base time
	class byte
}

// treeSchedule lays out n seconds of offered load: rt every 2 ms, the
// greedy leaves evenly spaced in between, each run of three a random
// permutation of a, b, c drawn from the seed.
func treeSchedule(seed int64, secs float64) []slotDue {
	var out []slotDue
	rtGap := float64(treeSize*8) / treeRTRate * 1e9
	for t := 0.0; t < secs*1e9; t += rtGap {
		out = append(out, slotDue{due: int64(t), class: treeRT})
	}
	greedyGap := float64(treeSize*8) / (treeOffered - treeRTRate) * 1e9
	perm := []byte{1, 2, 3}
	for i := 0; float64(i)*greedyGap < secs*1e9; i++ {
		if i%3 == 0 {
			r := mix(uint64(seed) ^ uint64(i)*0x9e3779b97f4a7c15)
			for j := 2; j > 0; j-- {
				k := int(r % uint64(j+1))
				r /= uint64(j + 1)
				perm[j], perm[k] = perm[k], perm[j]
			}
		}
		out = append(out, slotDue{due: int64(float64(i) * greedyGap), class: perm[i%3]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

func runTree(cfg config) (*result, error) {
	runtime.GOMAXPROCS(1)
	if pinned() {
		if err := pinProcess(loadCPU); err != nil {
			return nil, err
		}
	}
	res := newResult(cfg)
	res.env.GatewayMaxProcs = gatewayMaxProcs
	res.env.Transport = "loopback UDP"

	total := treeWarmup.Seconds() + cfg.seconds
	sched := treeSchedule(cfg.seed, total)
	sink, err := newTreeSink(cfg.seed, sched)
	if err != nil {
		return res, err
	}
	defer sink.close()

	// Set-up: exec until the first datagram crosses the gateway to the sink,
	// setupLaunches times; the last launch carries the measurement.
	var setups, readies []float64
	var gw *gwProc
	var conn *net.UDPConn
	var rcvbuf0 int64
	for i := 0; i < setupLaunches; i++ {
		if rcvbuf0, err = udpRcvbufErrors(); err != nil {
			return res, err
		}
		sink.reset()
		t0 := time.Now()
		gw, err = startGateway(cfg.gateway, append([]string{"-upstream", sink.addr()}, treeArgs...))
		if err != nil {
			return res, err
		}
		conn, err = dialGateway(gw.listen)
		if err == nil {
			if err = sink.probe(conn, cfg.seed, 0); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			gw.kill()
			return res, fmt.Errorf("set-up probe: %w\n%s", err, gw.log())
		}
		setups = append(setups, time.Since(t0).Seconds())
		readies = append(readies, float64(gw.readyNs)/1e6)
		if i < setupLaunches-1 {
			conn.Close()
			if err := gw.stop(); err != nil {
				return res, err
			}
		}
	}
	defer func() {
		if gw != nil {
			gw.kill()
		}
	}()
	res.e2e["setup_s"] = median(setups)
	res.layer["hpfqgw.ready_ms"] = median(readies)

	// Status poller: a fixed low rate, timed, for the whole run.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	var statusMs []float64
	var pollErr error
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(statusEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				d, err := gw.status(nil)
				if err != nil {
					pollErr = err
					return
				}
				statusMs = append(statusMs, float64(d.Nanoseconds())/1e6)
			}
		}
	}()

	// The window is laid over due time. The generator takes a mark at
	// every sub-window edge as it reaches it; /api/status only at the edges
	// of the untraced and traced halves.
	win := newWindow(treeWarmup.Nanoseconds(), cfg.seconds)
	untraced, traced := spans(cfg.trace)
	gen := &treeGen{conn: conn, seed: cfg.seed, sched: sched, win: win, traced: traced}
	gen.snap = func(i int) treeMark {
		m := treeMark{t: time.Now(), self: selfCPUNs()}
		m.steal, m.ticks = hostTicks()
		m.proc, m.err = sampleProc(gw.pid())
		if m.err == nil && (i == untraced.start() || i == untraced.end() || i == nChunks) {
			_, m.err = gw.status(&m.st)
		}
		return m
	}
	base := time.Now()
	sink.start(base, win, untraced)
	gen.run(base)
	res.report("peak_rss_mb", peakRSSMB(gw.pid()), "MB")
	close(stopPoll)
	pollWG.Wait()
	conn.Close()
	if pollErr != nil {
		return res, pollErr
	}
	for _, m := range gen.marks {
		if m.err != nil {
			return res, m.err
		}
	}
	if gen.err != nil {
		return res, gen.err
	}

	// Correctness gate.
	var rcvbuf1 int64
	var sw sinkCounts
	st, err := settled(gw, func(st dataplane.Status) error {
		var err error
		if rcvbuf1, err = udpRcvbufErrors(); err != nil {
			return err
		}
		sw = sink.counts()
		var sent, enq, drop int64
		for c := 0; c < 4; c++ {
			s, _ := st.Scheduler.Session(c)
			sent += int64(gen.sentBy[c])
			enq += s.Enqueued.Packets
			drop += s.Dropped.Packets
		}
		// Repair datagrams originate in the gateway: they join the dequeued
		// side only.
		return checkConservation(enq, drop, st.Scheduler.Dequeued.Packets,
			sent+1, sw.wire, rcvbuf1-rcvbuf0) // +1: the set-up probe
	})
	if err != nil {
		return res, err
	}
	if err := sink.failure(); err != nil {
		return res, err
	}
	if rcvbuf1 == rcvbuf0 {
		for c := 0; c < 4; c++ {
			s, _ := st.Scheduler.Session(c)
			got := sw.delivered[c]
			if c == treeRT {
				got += sw.probes
			}
			if int64(got) != s.Dequeued.Packets {
				return res, fmt.Errorf("class %d: gateway dequeued %d, sink delivered %d", c, s.Dequeued.Packets, got)
			}
		}
	}
	res.attempted = int64(gen.sentBy[treeRT])
	res.failed = res.attempted - int64(sw.delivered[treeRT])
	if err := gw.stop(); err != nil {
		return res, fmt.Errorf("gateway shutdown: %w", err)
	}
	gw = nil

	// End-to-end metrics: trimmed means over the least-stolen untraced
	// sub-windows.
	marks := gen.marks
	lats := sink.latencies()
	var steal, ticks []int64
	for _, m := range marks {
		steal, ticks = append(steal, m.steal), append(ticks, m.ticks)
	}
	shares := stealShares(steal, ticks)
	use := quietest(untraced, shares)
	res.note("host steal per sub-window (%%): %s; figures from sub-windows %v", percents(shares), use)
	res.e2e["kpps"] = centralOver(use, func(i int) float64 {
		return float64(sw.perChunk[i]) / (float64(win.chunk) / 1e9) / 1e3
	})
	offered := func(i int) float64 {
		return float64(countDue(gen.sentDue, win.edge(i), win.edge(i+1)))
	}
	res.e2e["cpu_us_per_pkt"] = centralOver(use, func(i int) float64 {
		return float64(marks[i+1].proc.cpuNs-marks[i].proc.cpuNs) / 1e3 / offered(i)
	})
	res.e2e["lat_p50_us"] = lats.quantile(use, 0.50) / 1e3
	res.e2e["lat_p90_us"] = lats.quantile(use, 0.90) / 1e3
	res.report("lat_p99_us", lats.all(use).quantile(0.99)/1e3, "us")
	m0, m1 := marks[untraced.start()], marks[untraced.end()]
	share, err := treeShareMin(m0.st, m1.st, sw.winBits,
		float64(win.edge(untraced.end())-win.edge(untraced.start()))/1e9)
	if err != nil {
		return res, err
	}
	res.e2e["share_min_pct"] = share
	res.note("gw_tree_fec: %s at %g b/s, offered %.3g b/s of %d-byte datagrams, queuecap %d",
		treeSpec, treeLink, treeOffered, treeSize, treeQueueCap)
	res.note("gw_tree_fec: %d rt latency samples, %d datagrams scheduled, %d status polls, %d kernel RcvbufErrors",
		lats.samples(use), len(sched), len(statusMs), rcvbuf1-rcvbuf0)

	res.note("p90 | p99 per sub-window (µs): %s | %s", lats.describe(0.90), lats.describe(0.99))

	if cfg.trace {
		res.layer["trace.overhead_pct"] = 100 * (lats.quantile(quietest(traced, shares), 0.5)/lats.quantile(use, 0.5) - 1)
		t0, t1 := marks[traced.start()], marks[traced.end()]
		n := float64(countDue(gen.sentDue, win.edge(traced.start()), win.edge(traced.end())))
		rt, _ := t1.st.Scheduler.Session(treeRT)
		res.layer["hpfqgw.rt_wfi_ms"] = rt.WFI * 1e3
		res.layer["hpfqgw.ctxsw_per_pkt"] = float64(t1.proc.ctxsw-t0.proc.ctxsw) / n
		res.layer["hpfqgw.batch_avg"] = batchAvg(t0.st.Scheduler, t1.st.Scheduler)
		res.layer["hpfqgw.sojourn_mean_us"] = sojournMeanUs(t0.st.Scheduler, t1.st.Scheduler)
		res.layer["hpfqgw.drop_tail_pct"] = dropTailPct(t0.st.Scheduler, t1.st.Scheduler)
		res.layer["hpfqgw.rcvbuf_errors"] = float64(rcvbuf1 - rcvbuf0)
		res.layer["ctl.status_ms"] = median(statusMs)
		res.layer["gen.cpu_us_per_pkt"] = float64(t1.self-t0.self) / 1e3 / n
		res.layer["gen.late_p99_us"] = gen.late.quantile(0.99) / 1e3
		res.layer["net.send_ns"] = float64(gen.sendNs) / float64(gen.sends)
		if err := runLayerProbes(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// treeShareMin compares each backlogged leaf's achieved rate at the sink
// with its H-GPS fluid ideal over the tree the gateway reports. Greedy
// leaves are backlogged by construction; the repair leaf's demand is what
// the encoder offered it, and rt's is what the harness sent.
func treeShareMin(st0, st1 dataplane.Status, winBits map[int]float64, secs float64) (float64, error) {
	tree, err := treeFromNodes(st1.Nodes)
	if err != nil {
		return 0, err
	}
	demand := map[int]float64{}
	judged := append([]int(nil), treeGreedy...)
	for _, leaf := range tree.Leaves() {
		id := leaf.Session
		s0, _ := st0.Scheduler.Session(id)
		s1, _ := st1.Scheduler.Session(id)
		demand[id] = (s1.Enqueued.Bits + s1.Dropped.Bits - s0.Enqueued.Bits - s0.Dropped.Bits) / secs
		if id >= dataplane.DefaultRepairClassOffset {
			judged = append(judged, id)
		}
	}
	for _, id := range treeGreedy {
		demand[id] = math.Inf(1)
	}
	ideal, err := idealRates(tree, st1.Rate, demand)
	if err != nil {
		return 0, err
	}
	achieved := map[int]float64{}
	for id, bits := range winBits {
		achieved[id] = bits / secs
	}
	return shareMinPct(achieved, ideal, judged), nil
}

func dialGateway(listen string) (*net.UDPConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, raddr)
}

// treeMark is a snapshot at a window edge.
type treeMark struct {
	t            time.Time
	self         int64
	steal, ticks int64 // host CPU ticks
	proc         procSample
	st           dataplane.Status
	err          error
}

// treeGen is the open-loop generator. Whenever it wakes it sends every
// datagram that is due, timing each from its due time, then sleeps until
// the next one is due: it never polls.
type treeGen struct {
	conn   *net.UDPConn
	seed   int64
	sched  []slotDue
	win    window
	traced subs // sub-windows whose sends are timed
	snap   func(edge int) treeMark
	marks  []treeMark // one per sub-window edge

	sentBy  [4]uint64
	sentDue []int64 // due time of every sent datagram, in order
	late    hist    // send time − due time, traced sub-windows
	sends   int64
	sendNs  int64
	err     error
}

func (g *treeGen) run(base time.Time) {
	buf := make([]byte, treeSize)
	g.sentDue = make([]int64, 0, len(g.sched))
	mark := func(upTo int64) {
		for len(g.marks) <= nChunks && g.win.edge(len(g.marks)) <= upTo {
			g.marks = append(g.marks, g.snap(len(g.marks)))
		}
	}
	for i := 0; i < len(g.sched); {
		now := time.Since(base).Nanoseconds()
		for ; i < len(g.sched) && g.sched[i].due <= now; i++ {
			s := g.sched[i]
			mark(s.due)
			fillDatagram(buf, g.seed, s.class, 0, 0, uint64(i))
			c := g.win.index(s.due)
			traced := g.traced.has(c)
			t := time.Since(base).Nanoseconds()
			if _, err := g.conn.Write(buf); err != nil {
				g.err = fmt.Errorf("generator: %w", err)
				return
			}
			if traced {
				g.sendNs += time.Since(base).Nanoseconds() - t
				g.sends++
				g.late.add(t - s.due)
			}
			g.sentBy[s.class]++
			g.sentDue = append(g.sentDue, s.due)
		}
		if i < len(g.sched) {
			sleepUntil(base, g.sched[i].due)
		}
	}
	mark(math.MaxInt64)
}

// countDue counts the sent datagrams due in [from, to).
func countDue(due []int64, from, to int64) int {
	lo := sort.Search(len(due), func(i int) bool { return due[i] >= from })
	hi := sort.Search(len(due), func(i int) bool { return due[i] >= to })
	return hi - lo
}

// sinkCounts is the sink's tally.
type sinkCounts struct {
	wire      int64           // datagrams read off the socket, repairs included
	delivered [4]uint64       // unique source datagrams per class, decoded
	probes    uint64          // set-up probes received
	perChunk  [nChunks]int64  // wire datagrams per sub-window, by arrival
	winBits   map[int]float64 // wire bits per leaf over the untraced sub-windows
}

// treeSink is the upstream peer for gw_tree_fec: it unwraps FEC with
// fec.Decoder, checks every delivered datagram against the schedule, marks
// it delivered exactly once, and times rt datagrams from their due time.
type treeSink struct {
	conn  *net.UDPConn
	seed  int64
	sched []slotDue
	done  chan struct{}

	mu       sync.Mutex
	dec      *fec.Decoder
	seen     []bool
	c        sinkCounts
	base     time.Time
	started  bool
	win      window
	untraced subs
	rtLat    latChunks // rt arrival − due, by due time
	probeCh  chan uint64
	err      error
}

func newTreeSink(seed int64, sched []slotDue) (*treeSink, error) {
	conn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &treeSink{conn: conn, seed: seed, sched: sched, done: make(chan struct{}),
		probeCh: make(chan uint64, 1)}
	s.reset()
	go s.loop()
	return s, nil
}

func (s *treeSink) addr() string { return s.conn.LocalAddr().String() }

// reset clears the tally for a fresh gateway launch.
func (s *treeSink) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dec = fec.NewDecoder()
	s.seen = make([]bool, len(s.sched))
	s.c = sinkCounts{winBits: map[int]float64{}}
	s.started = false
}

// start opens the measurement on the clock that starts at base.
func (s *treeSink) start(base time.Time, win window, untraced subs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base, s.win, s.untraced, s.started = base, win, untraced, true
}

// probe sends one probe datagram on conn and waits for the sink to see it.
func (s *treeSink) probe(conn *net.UDPConn, seed int64, seq uint64) error {
	b := make([]byte, treeSize)
	fillDatagram(b, seed, treeRT, probeStream, 0, seq)
	if _, err := conn.Write(b); err != nil {
		return err
	}
	select {
	case got := <-s.probeCh:
		if got != seq {
			return fmt.Errorf("probe %d arrived, want %d", got, seq)
		}
		return nil
	case <-time.After(5 * time.Second):
		return errors.New("probe never reached the sink")
	}
}

func (s *treeSink) loop() {
	defer close(s.done)
	buf := make([]byte, 65536)
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.fail(err)
			}
			return
		}
		s.mu.Lock()
		s.handle(buf[:n])
		s.mu.Unlock()
	}
}

// handle accounts one wire datagram. Caller holds s.mu.
func (s *treeSink) handle(b []byte) {
	now := time.Since(s.base).Nanoseconds()
	chunk := -1
	if s.started {
		chunk = s.win.index(now)
	}
	s.c.wire++
	leaf := -1
	outs := [][]byte{b}
	if fec.IsFEC(b) {
		var err error
		outs, err = s.dec.Push(b)
		if err != nil {
			s.failLocked(fmt.Errorf("sink: FEC: %w", err))
			return
		}
		// Byte 2 of the FEC wire header is the datagram type: 0 source
		// (of the protected leaf a), 1 repair (of a's repair leaf).
		leaf = treeGreedy[0]
		if b[2] == 1 {
			leaf += dataplane.DefaultRepairClassOffset
		}
	} else if len(b) > 0 {
		leaf = int(b[0])
	}
	if chunk >= 0 {
		s.c.perChunk[chunk]++
		if s.untraced.has(chunk) {
			s.c.winBits[leaf] += float64(len(b) * 8)
		}
	}
	for _, o := range outs {
		s.deliver(o, now)
	}
}

// deliver checks one source datagram. Caller holds s.mu.
func (s *treeSink) deliver(b []byte, now int64) {
	p, err := verifyDatagram(b, s.seed, treeSize, 0)
	if err != nil {
		s.failLocked(fmt.Errorf("sink: %w", err))
		return
	}
	if p.stream == probeStream {
		s.c.probes++
		select {
		case s.probeCh <- p.seq:
		default:
		}
		return
	}
	if p.stream != 0 || p.seq >= uint64(len(s.sched)) || s.sched[p.seq].class != p.class {
		s.failLocked(fmt.Errorf("sink: datagram stream %d seq %d class %d is not in the schedule", p.stream, p.seq, p.class))
		return
	}
	if s.seen[p.seq] {
		s.failLocked(fmt.Errorf("sink: seq %d delivered twice", p.seq))
		return
	}
	s.seen[p.seq] = true
	s.c.delivered[p.class]++
	if p.class == treeRT && s.started {
		due := s.sched[p.seq].due
		if i := s.win.index(due); i >= 0 {
			s.rtLat[i].add(now - due)
		}
	}
}

func (s *treeSink) counts() sinkCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	c.winBits = map[int]float64{}
	for k, v := range s.c.winBits {
		c.winBits[k] = v
	}
	return c
}

// latencies copies the rt latency histograms.
func (s *treeSink) latencies() *latChunks {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.rtLat
	return &l
}

func (s *treeSink) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(err)
}

func (s *treeSink) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *treeSink) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *treeSink) close() {
	s.conn.Close()
	<-s.done
}
