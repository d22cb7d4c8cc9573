package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/faultconn"
)

// gw_echo: closed-loop 64-byte echo through hpfqgw with 4 flat WF²Q+
// classes and a link rate far above what loopback can carry, so pacing
// never binds and the path socket → flow table → ingest → pump → flow
// egress → sink → return path is all that is measured.
const (
	echoSize      = 64
	echoClients   = 2  // one per core
	echoWindow    = 32 // outstanding datagrams per client: 2×32×64 B ≪ 212 992 B socket buffers
	echoClasses   = 4
	setupLaunches = 9 // gateway launches (engine builds) per run; setup_s is their median
	warmup        = time.Second
	drainWait     = time.Second // how long stop waits for outstanding echoes
)

var echoArgs = []string{
	"-shards", "1", "-classify", "byte0", "-rate", "1e11",
	"-classes", "0=2.5e10,1=2.5e10,2=2.5e10,3=2.5e10",
	"-queuecap", "1024", "-metrics", "-admin", "127.0.0.1:0",
}

func runEcho(cfg config) (*result, error) {
	runtime.GOMAXPROCS(1)
	if pinned() {
		if err := pinProcess(loadCPU); err != nil {
			return nil, err
		}
	}
	res := newResult(cfg)
	res.env.GatewayMaxProcs = gatewayMaxProcs
	res.env.Transport = "loopback UDP"

	sink, err := newEchoSink(cfg)
	if err != nil {
		return res, err
	}
	defer sink.close()

	// Set-up: launch the gateway setupLaunches times, each timed from exec
	// until the first echo is back on every client socket. The last launch
	// carries the measurement.
	var setups, readies []float64
	var gw *gwProc
	var clients []*echoClient
	var rcvbuf0 int64
	var sinkBase int64
	for i := 0; i < setupLaunches; i++ {
		rcvbuf0, err = udpRcvbufErrors()
		if err != nil {
			return res, err
		}
		sinkBase = sink.recv.Load()
		t0 := time.Now()
		gw, err = startGateway(cfg.gateway, append([]string{"-upstream", sink.addr()}, echoArgs...))
		if err != nil {
			return res, err
		}
		clients, err = probeClients(cfg.seed, gw.listen)
		if err != nil {
			gw.kill()
			return res, fmt.Errorf("set-up probe: %w\n%s", err, gw.log())
		}
		setups = append(setups, time.Since(t0).Seconds())
		readies = append(readies, float64(gw.readyNs)/1e6)
		if i < setupLaunches-1 {
			for _, c := range clients {
				c.conn.Close()
			}
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

	// The clients share one clock; the window opens after the warm-up.
	base := time.Now()
	win := newWindow(warmup.Nanoseconds(), cfg.seconds)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *echoClient) {
			defer wg.Done()
			c.run(base, win, cfg.trace, &stop)
		}(c)
	}
	defer func() { // on an early return: unblock the clients and wait for them
		stop.Store(true)
		for _, c := range clients {
			c.conn.Close()
		}
		wg.Wait()
	}()

	// A mark at every sub-window edge; /api/status (for the gateway's own
	// counters) only at the edges of the untraced and traced halves.
	untraced, traced := spans(cfg.trace)
	type mark struct {
		t          time.Time
		recv, sent int64
		proc       procSample
		self       int64
		steal, cpu int64 // host ticks
		st         dataplane.Status
		stMs       float64
	}
	marks := make([]mark, nChunks+1)
	for i := range marks {
		sleepUntil(base, win.edge(i))
		m := mark{t: time.Now(), self: selfCPUNs()}
		m.steal, m.cpu = hostTicks()
		for _, c := range clients {
			m.recv += c.recv.Load()
			m.sent += c.sent.Load()
		}
		if m.proc, err = sampleProc(gw.pid()); err != nil {
			return res, err
		}
		if i == untraced.start() || i == untraced.end() || i == nChunks {
			d, err := gw.status(&m.st)
			if err != nil {
				return res, err
			}
			m.stMs = float64(d.Nanoseconds()) / 1e6
		}
		marks[i] = m
	}
	res.report("peak_rss_mb", peakRSSMB(gw.pid()), "MB")
	stop.Store(true)
	wg.Wait()

	// Correctness gate.
	var sent, recv, lost int64
	for _, c := range clients {
		if c.err != nil {
			return res, fmt.Errorf("client %d: %w", c.id, c.err)
		}
		sent += c.sent.Load()
		recv += c.recv.Load()
		lost += int64(c.outstanding)
	}
	res.attempted, res.failed = sent, lost
	if err := sink.failure(); err != nil {
		return res, err
	}
	var rcvbuf1, sinkRecv int64
	st, err := settled(gw, func(st dataplane.Status) error {
		var err error
		if rcvbuf1, err = udpRcvbufErrors(); err != nil {
			return err
		}
		sinkRecv = sink.recv.Load() - sinkBase
		return checkConservation(st.Scheduler.Enqueued.Packets, st.Scheduler.Dropped.Packets,
			st.Scheduler.Dequeued.Packets, sent, sinkRecv, rcvbuf1-rcvbuf0)
	})
	if err != nil {
		return res, err
	}
	if sinkRecv != recv+lost {
		return res, fmt.Errorf("return path: sink echoed %d, clients received %d", sinkRecv, recv)
	}
	if lost > 0 || st.Scheduler.Dropped.Packets > 0 {
		return res, fmt.Errorf("%d echoes lost, %d datagrams dropped by the gateway (%v): closed-loop echo cannot lose",
			lost, st.Scheduler.Dropped.Packets, st.Scheduler.DropReasons)
	}
	if err := gw.stop(); err != nil {
		return res, fmt.Errorf("gateway shutdown: %w", err)
	}
	gw = nil

	// End-to-end metrics: trimmed means over the least-stolen untraced
	// sub-windows.
	var lat latChunks
	for _, c := range clients {
		lat.merge(&c.lat)
	}
	kpps := func(i int) float64 {
		return float64(marks[i+1].recv-marks[i].recv) / marks[i+1].t.Sub(marks[i].t).Seconds() / 1e3
	}
	var steal, ticks []int64
	for _, m := range marks {
		steal, ticks = append(steal, m.steal), append(ticks, m.cpu)
	}
	shares := stealShares(steal, ticks)
	use := quietest(untraced, shares)
	res.note("host steal per sub-window (%%): %s; figures from sub-windows %v", percents(shares), use)
	res.e2e["kpps"] = centralOver(use, kpps)
	res.e2e["cpu_us_per_pkt"] = centralOver(use, func(i int) float64 {
		return float64(marks[i+1].proc.cpuNs-marks[i].proc.cpuNs) / 1e3 / float64(marks[i+1].sent-marks[i].sent)
	})
	res.e2e["lat_p50_us"] = lat.quantile(use, 0.50) / 1e3
	res.e2e["lat_p90_us"] = lat.quantile(use, 0.90) / 1e3
	res.report("lat_p99_us", lat.all(use).quantile(0.99)/1e3, "us")
	m0, m1 := marks[untraced.start()], marks[untraced.end()]
	res.e2e["share_min_pct"] = flatShareMin(m0.st, m1.st, m1.t.Sub(m0.t).Seconds())
	res.note("gw_echo: %d clients × window %d, %d-byte datagrams, %d RTT samples, %d datagrams sent in all",
		echoClients, echoWindow, echoSize, lat.samples(use), sent)

	res.note("p90 | p99 per sub-window (µs): %s | %s", lat.describe(0.90), lat.describe(0.99))

	if cfg.trace {
		res.layer["trace.overhead_pct"] = 100 * (1 - centralOver(quietest(traced, shares), kpps)/centralOver(use, kpps))
		t0, t1 := marks[traced.start()], marks[traced.end()]
		n := float64(t1.sent - t0.sent)
		res.layer["hpfqgw.ctxsw_per_pkt"] = float64(t1.proc.ctxsw-t0.proc.ctxsw) / n
		res.layer["hpfqgw.batch_avg"] = batchAvg(t0.st.Scheduler, t1.st.Scheduler)
		res.layer["hpfqgw.sojourn_mean_us"] = sojournMeanUs(t0.st.Scheduler, t1.st.Scheduler)
		res.layer["hpfqgw.drop_tail_pct"] = dropTailPct(t0.st.Scheduler, t1.st.Scheduler)
		res.layer["hpfqgw.rcvbuf_errors"] = float64(rcvbuf1 - rcvbuf0)
		res.layer["ctl.status_ms"] = median([]float64{m0.stMs, t0.stMs, t1.stMs})
		res.layer["gen.cpu_us_per_pkt"] = float64(t1.self-t0.self) / 1e3 / n
		var sends, sendNs int64
		for _, c := range clients {
			sends += c.sends
			sendNs += c.sendNs
		}
		res.layer["net.send_ns"] = float64(sendNs) / float64(sends)
		if err := runLayerProbes(res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkConservation applies packet conservation across the gateway: every
// datagram the harness sent was enqueued or dropped with a reason, and every
// datagram the gateway dequeued reached the sink — except those the kernel
// counted as receive-buffer overflows. The kernel's counter covers the
// gateway's listen socket and the sink's socket alike, so the two losses
// are checked together against it.
func checkConservation(enq, dropped, deq, sent, sinkRecv, rcvbuf int64) error {
	ingressLoss := sent - (enq + dropped)
	egressLoss := deq - sinkRecv
	if ingressLoss < 0 || egressLoss < 0 || ingressLoss+egressLoss != rcvbuf {
		return fmt.Errorf("conservation: harness sent %d, gateway enqueued %d + dropped %d, dequeued %d, sink received %d, kernel RcvbufErrors %d",
			sent, enq, dropped, deq, sinkRecv, rcvbuf)
	}
	return nil
}

// settled reads the gateway's status until its queues are empty and check
// passes, for up to 2 s (datagrams still in socket buffers, or a partial
// FEC block still waiting to flush, settle within that), and returns the
// last status with check's verdict.
func settled(gw *gwProc, check func(dataplane.Status) error) (dataplane.Status, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var st dataplane.Status
		if _, err := gw.status(&st); err != nil {
			return st, err
		}
		var err error
		if st.Scheduler.QueueLen != 0 {
			err = fmt.Errorf("gateway still holds %d datagrams after the run", st.Scheduler.QueueLen)
		} else {
			err = check(st)
		}
		if err == nil || time.Now().After(deadline) {
			return st, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// echoClient is one closed-loop client socket: echoWindow slots, each
// holding one outstanding datagram; an echo frees its slot, which sends the
// stream's next datagram at once.
type echoClient struct {
	id    byte
	seed  int64
	conn  *net.UDPConn
	slots [echoWindow]struct {
		seq    uint64
		sentNs int64
		busy   bool
	}
	next        uint64
	outstanding int
	base        time.Time // the run's clock
	sent, recv  atomic.Int64
	lat         latChunks // RTTs per sub-window, by receive time
	sends       int64     // traced writes and their total cost
	sendNs      int64
	err         error
	out, in     []byte
}

// probeClients opens echoClients sockets to the gateway and sends each one
// datagram, returning once every echo is back.
func probeClients(seed int64, listen string) ([]*echoClient, error) {
	raddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	var cs []*echoClient
	fail := func(err error) ([]*echoClient, error) {
		for _, c := range cs {
			c.conn.Close()
		}
		return nil, err
	}
	for i := 0; i < echoClients; i++ {
		conn, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return fail(err)
		}
		c := &echoClient{id: byte(i), seed: seed, conn: conn, base: time.Now(),
			out: make([]byte, echoSize), in: make([]byte, 2048)}
		cs = append(cs, c)
		if err := c.send(0, false); err != nil {
			return fail(err)
		}
	}
	for _, c := range cs {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.receive(window{}); err != nil {
			return fail(fmt.Errorf("client %d: %w", c.id, err))
		}
		c.conn.SetReadDeadline(time.Time{})
	}
	return cs, nil
}

func (c *echoClient) send(slot uint16, traced bool) error {
	seq := c.next
	c.next++
	fillDatagram(c.out, c.seed, classOf(c.seed, c.id, seq, echoClasses), c.id, slot, seq)
	s := &c.slots[slot]
	s.seq, s.busy = seq, true
	s.sentNs = time.Since(c.base).Nanoseconds()
	_, err := c.conn.Write(c.out)
	if traced {
		c.sendNs += time.Since(c.base).Nanoseconds() - s.sentNs
		c.sends++
	}
	if err != nil {
		return err
	}
	c.outstanding++
	c.sent.Add(1)
	return nil
}

// receive reads one echo, checks it is an outstanding datagram of this
// client, byte for byte, and frees its slot, which it returns. The RTT
// goes into the sub-window of win it arrived in, if any.
func (c *echoClient) receive(win window) (uint16, error) {
	n, err := c.conn.Read(c.in)
	if err != nil {
		return 0, err
	}
	now := time.Since(c.base).Nanoseconds()
	p, err := verifyDatagram(c.in[:n], c.seed, echoSize, echoClasses)
	if err != nil {
		return 0, err
	}
	if p.stream != c.id || int(p.slot) >= echoWindow {
		return 0, fmt.Errorf("echo for stream %d slot %d is not ours", p.stream, p.slot)
	}
	s := &c.slots[p.slot]
	if !s.busy || s.seq != p.seq {
		return 0, fmt.Errorf("echo seq %d in slot %d: duplicate or unknown (slot holds seq %d busy=%v)", p.seq, p.slot, s.seq, s.busy)
	}
	s.busy = false
	c.outstanding--
	c.recv.Add(1)
	if i := win.index(now); i >= 0 {
		c.lat[i].add(now - s.sentNs)
	}
	return p.slot, nil
}

// run keeps the window full until the stop phase, then waits up to
// drainWait for the outstanding echoes; those that never return stay
// counted in outstanding.
func (c *echoClient) run(base time.Time, win window, trace bool, stop *atomic.Bool) {
	defer c.conn.Close()
	// Re-base the slots' send times onto the run's clock.
	shift := c.base.Sub(base).Nanoseconds()
	for i := range c.slots {
		c.slots[i].sentNs += shift
	}
	c.base = base
	_, tracedHalf := spans(trace)
	for s := 0; s < echoWindow; s++ {
		if !c.slots[s].busy {
			if c.err = c.send(uint16(s), false); c.err != nil {
				return
			}
		}
	}
	stopping := false
	for c.outstanding > 0 {
		if !stopping && stop.Load() {
			stopping = true
			c.conn.SetReadDeadline(time.Now().Add(drainWait))
		}
		slot, err := c.receive(win)
		if err != nil {
			var ne net.Error
			if stopping && errors.As(err, &ne) && ne.Timeout() {
				return
			}
			c.err = err
			return
		}
		if !stopping {
			i := win.index(time.Since(base).Nanoseconds())
			tr := tracedHalf.has(i)
			if c.err = c.send(slot, tr); c.err != nil {
				return
			}
		}
	}
}

// echoSink is the upstream peer: it checks every datagram and echoes it
// back to the gateway flow socket that sent it.
type echoSink struct {
	conn *net.UDPConn
	src  udpSource
	rd   faultconn.PacketReader
	drop *faultconn.Reader // non-nil: lose exactly one datagram, then bypass
	seed int64
	recv atomic.Int64
	done chan struct{}

	mu  sync.Mutex
	err error
}

// udpSource adapts an unconnected socket to faultconn's PacketReader,
// remembering each datagram's sender.
type udpSource struct {
	conn *net.UDPConn
	from *net.UDPAddr
}

func (s *udpSource) ReadPacket(b []byte) (int, error) {
	n, from, err := s.conn.ReadFromUDP(b)
	s.from = from
	return n, err
}

func listenLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

func newEchoSink(cfg config) (*echoSink, error) {
	conn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &echoSink{conn: conn, seed: cfg.seed, done: make(chan struct{})}
	s.src.conn = conn
	s.rd = &s.src
	if cfg.sinkDropOne {
		s.drop = faultconn.NewReader(&s.src, faultconn.WithSeed(cfg.seed), faultconn.WithDropRate(0.001))
	}
	go s.loop()
	return s, nil
}

func (s *echoSink) addr() string { return s.conn.LocalAddr().String() }

func (s *echoSink) loop() {
	defer close(s.done)
	buf := make([]byte, 2048)
	for {
		rd := s.rd
		if s.drop != nil && s.drop.Stats().Dropped == 0 {
			rd = s.drop
		}
		n, err := rd.ReadPacket(buf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.fail(err)
			}
			return
		}
		if _, err := verifyDatagram(buf[:n], s.seed, echoSize, echoClasses); err != nil {
			s.fail(fmt.Errorf("sink: %w", err))
			continue
		}
		s.recv.Add(1)
		if _, err := s.conn.WriteToUDP(buf[:n], s.src.from); err != nil && !errors.Is(err, net.ErrClosed) {
			s.fail(fmt.Errorf("sink echo: %w", err))
		}
	}
}

func (s *echoSink) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

func (s *echoSink) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *echoSink) close() {
	s.conn.Close()
	<-s.done
}
