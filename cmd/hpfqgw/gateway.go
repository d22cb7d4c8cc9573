package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpfq"
	"hpfq/internal/faultconn"
	"hpfq/internal/udpio"
)

// errOut is where the gateway reports recovered panics (swapped out by
// tests).
var errOut io.Writer = os.Stderr

// classifier assigns an arriving datagram to one of the gateway's classes.
// Both the source endpoint and the payload are available so policies can key
// on either (hash keys on the sender, byte0 on the first payload byte).
type classifier func(src netip.AddrPort, payload []byte) int

// gwConfig tunes the gateway's flow table, buffer pool, and optional fault
// plans.
type gwConfig struct {
	flowTTL      time.Duration
	maxFlows     int
	fault        []faultconn.Option // non-empty: wrap egress writes with injected faults
	ingressFault []faultconn.Option // non-empty: wrap listen-socket reads with injected faults
	pool         *hpfq.BufferPool   // ingress payload buffers; nil selects the shared pool
	decodeFEC    bool               // -fec.decode: unwrap/reconstruct FEC traffic at ingress
}

// gateway forwards UDP datagrams from its listen sockets to an upstream
// peer, pacing egress through an hpfq.ShardedDataplane. Each client gets a
// NAT-style flow — a dedicated connected upstream socket plus a return-path
// relay that retires the flow once it idles past the TTL — tracked in one
// shared flow table, so replies reach the client that sent the request
// however many clients interleave.
//
// Sharding: the gateway runs one ingress reader per listen socket. With N
// SO_REUSEPORT sockets over N shards (kernel-hash mode) reader i pins its
// traffic to shard i — the kernel's 4-tuple hash is the classifier and the
// whole path is shard-local. With a single socket over N shards the reader
// places each datagram by a consistent hash of the client endpoint
// (flowKey), so a flow is sticky to its shard either way. Each
// reader runs under its own crash-only supervisor: a panic (e.g. out of a
// classifier on a hostile payload) costs that one datagram, the loop
// restarts, and the restart is counted.
type gateway struct {
	dp       *hpfq.ShardedDataplane
	listens  []*net.UDPConn // one per reader; listens[0] sources the return path
	ft       *flowTable
	classify classifier
	fault    []faultconn.Option
	pool     *hpfq.BufferPool
	readers  []*gwReader
	restarts atomic.Int64
	// readFaults counts transient ingress read errors the supervised loops
	// absorbed (injected by -fault.ingress, or real EAGAIN-class errors).
	readFaults atomic.Int64
	fecClasses []int // the engine's protected classes, fed decode-stats feedback

	closeOnce sync.Once
	closeErr  error
}

// gwReader is one supervised ingress loop over one listen socket. All its
// fields are touched only by its own goroutine.
type gwReader struct {
	g *gateway
	// shard pins every datagram this reader ingests (kernel-hash mode:
	// SO_REUSEPORT already partitioned the flows). -1 selects software
	// placement by consistent hash of the client endpoint per datagram.
	shard int
	src   *udpio.Reader // batched reads off conn, with each datagram's sender
	rd    batchReader   // src, or the faultconn wrapper around it
	batch *rxBatch
	n     int // datagrams in the batch being forwarded
	next  int // the next of them to forward

	// FEC receive side (-fec.decode): the loop unwraps protected datagrams
	// and reconstructs erasures before classification. Per reader, because
	// with SO_REUSEPORT each flow's FEC blocks arrive on one socket.
	dec       *hpfq.FECDecoder
	fecSeen   uint64 // FEC datagrams since start, for feedback cadence
	lastRec   uint64 // Stats().Recovered already reported
	lastUnrec uint64 // Stats().Unrecoverable already reported
}

// newGateway wires listens to dp, whose classes and their FEC protection
// (-fec, '!fec') are configured by then. Pass one socket (software
// placement when dp has multiple shards) or exactly dp.Shards()
// SO_REUSEPORT sockets (reader i feeds shard i).
func newGateway(dp *hpfq.ShardedDataplane, listens []*net.UDPConn, upstream *net.UDPAddr, classify classifier, cfg gwConfig) *gateway {
	g := &gateway{
		dp:       dp,
		listens:  listens,
		ft:       newFlowTable(listens[0], upstream, cfg.flowTTL, cfg.maxFlows),
		classify: classify,
		fault:    cfg.fault,
		pool:     cfg.pool,
	}
	for _, f := range dp.Status().FEC {
		g.fecClasses = append(g.fecClasses, f.Class)
	}
	if g.pool == nil {
		g.pool = hpfq.SharedBufferPool()
	}
	g.ft.pool = g.pool
	for i, conn := range listens {
		r := &gwReader{g: g, shard: i}
		if len(listens) == 1 && dp.Shards() > 1 {
			r.shard = -1 // single socket over many shards: hash per datagram
		}
		r.src = udpio.NewSocket(conn).NewReader()
		r.rd = r.src
		r.batch = newRxBatch(g.pool, maxIngressBatch)
		if len(cfg.ingressFault) > 0 {
			r.rd = faultconn.NewReader(r.src, cfg.ingressFault...)
		}
		if cfg.decodeFEC {
			r.dec = hpfq.NewFECDecoder()
		}
		g.readers = append(g.readers, r)
	}
	return g
}

// flowKey is src's consistent-hash key (hpfq.FlowKeyAddr), computed without
// allocating. Both shard placement and the hash classifier derive from it;
// the v4 and v4-mapped forms of one endpoint share a key.
func flowKey(src netip.AddrPort) uint64 {
	ip := src.Addr().As16()
	return hpfq.FlowKeyAddr(ip[:], int(src.Port()))
}

// errNoFlow fails a scheduled datagram with no routable flow. It is not
// transient, so the data-plane drops the datagram (reason "write-error")
// instead of retrying a write that can never succeed.
var errNoFlow = errors.New("hpfqgw: datagram has no flow")

// batchReader fills up to len(bufs) datagrams, reslicing each filled
// bufs[i] to its length: a listen socket's reader, or the faultconn wrapper
// around it.
type batchReader interface {
	ReadBatch(bufs [][]byte) (n int, err error)
}

// payloadWriter sends a run of payloads to one flow, stopping at the first
// error: the flow socket's sink, or the faultconn wrapper around it.
type payloadWriter interface {
	WriteBatch(pkts [][]byte) (written int, err error)
}

// connSink writes to the flow socket selected for the current run. Only
// the data-plane's single pump goroutine touches it, so it needs no lock.
type connSink struct {
	sock *udpio.Socket
	w    *udpio.Writer
}

// WritePacket sends one datagram to the selected flow socket: the shape
// faultconn.NewWriter wraps.
func (s *connSink) WritePacket(b []byte) (int, error) {
	if s.sock == nil {
		return 0, errNoFlow
	}
	return s.sock.Conn().Write(b)
}

// WriteBatch sends a run to the selected flow socket as GSO groups,
// stopping at the first error.
func (s *connSink) WriteBatch(pkts [][]byte) (int, error) {
	if s.sock == nil {
		return 0, errNoFlow
	}
	return s.w.WriteRun(s.sock, netip.AddrPort{}, pkts)
}

// egress is the gateway's data-plane hpfq.PacketWriter:
// each token-bucket release arrives as one batch, which WriteBatch splits
// into runs of consecutive datagrams sharing a flow (the IngestCtx context)
// and sends run by run — scheduler order is preserved exactly, and each run
// is one sendmmsg of GSO groups on the flow's upstream socket, optionally
// through a faultconn wrapper so the whole retry/backoff path can be
// exercised from the command line. A datagram whose flow was retired while
// queued fails fatally (closed socket) and is recorded as a "write-error"
// drop — the NAT mapping is gone, so the datagram has nowhere to go.
type egress struct {
	sink connSink
	w    payloadWriter // &sink, or the faultconn wrapper around it
	raw  [][]byte      // pump-goroutine scratch for the current run
}

func newEgress(fault []faultconn.Option) *egress {
	e := &egress{sink: connSink{w: udpio.NewWriter()}}
	e.w = &e.sink
	if len(fault) > 0 {
		e.w = faultconn.NewWriter(&e.sink, fault...)
	}
	return e
}

// SetWriteDeadline forwards the pump watchdog's deadline down the write
// chain, so a write blocked in an injected stall can be interrupted. It
// reaches the faultconn wrapper only: connSink sets no deadline on the flow
// sockets, so without -fault.* flags the deadline does nothing.
func (e *egress) SetWriteDeadline(t time.Time) error {
	if dl, ok := e.w.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return dl.SetWriteDeadline(t)
	}
	return nil
}

func (e *egress) WriteBatch(pkts []hpfq.PacketDatagram) (int, error) {
	written := 0
	for written < len(pkts) {
		f, _ := pkts[written].Ctx.(*flow)
		if f == nil {
			return written, errNoFlow
		}
		run := written + 1
		for run < len(pkts) {
			if g, _ := pkts[run].Ctx.(*flow); g != f {
				break
			}
			run++
		}
		e.sink.sock = f.socket()
		e.raw = e.raw[:0]
		for _, p := range pkts[written:run] {
			e.raw = append(e.raw, p.B)
		}
		n, err := e.w.WriteBatch(e.raw)
		written += n
		if err != nil {
			return written, err
		}
		if written < run {
			// Short run without an error: report progress and let the pump
			// re-offer the suffix.
			return written, nil
		}
	}
	return written, nil
}

// parseShedOrder parses the -shed clause "id,id,..." into the explicit
// overload shed order (front sheds first).
func parseShedOrder(s string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("shed %q: bad class id %q", s, part)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, errors.New("empty shed order")
	}
	return ids, nil
}

// stallSpec is the parsed -fault.stall clause: block every write after the
// first `after` ops, each for `dur` (0 = forever, until a write deadline
// interrupts it).
type stallSpec struct {
	after uint64
	dur   time.Duration
}

// parseStall parses the -fault.stall clause "after[,dur]" — e.g. "100,2s"
// stalls each write for 2 s once 100 ops have passed, "0" stalls every
// write forever. Empty input means the flag is unset: nil, no error.
func parseStall(s string) (*stallSpec, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.SplitN(s, ",", 2)
	after, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fault.stall %q: bad op count: %v", s, err)
	}
	sp := &stallSpec{after: after}
	if len(parts) == 2 {
		d, err := time.ParseDuration(strings.TrimSpace(parts[1]))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("fault.stall %q: bad duration", s)
		}
		sp.dur = d
	}
	return sp, nil
}

// faultOptions assembles the faultconn plan behind the -fault.* flags.
func faultOptions(seed int64, errRate, short, drop float64, gilbert []float64, latency time.Duration, failAfter uint64, stall *stallSpec) []faultconn.Option {
	opts := []faultconn.Option{faultconn.WithSeed(seed)}
	if stall != nil {
		opts = append(opts, faultconn.WithStall(stall.after, stall.dur))
	}
	if errRate > 0 {
		opts = append(opts, faultconn.WithErrorRate(errRate))
	}
	if short > 0 {
		opts = append(opts, faultconn.WithShortWrites(short))
	}
	if gilbert != nil {
		opts = append(opts, faultconn.WithGilbertElliott(gilbert[0], gilbert[1], gilbert[2], gilbert[3]))
	} else if drop > 0 {
		opts = append(opts, faultconn.WithDropRate(drop))
	}
	if latency > 0 {
		opts = append(opts, faultconn.WithLatency(latency))
	}
	if failAfter > 0 {
		opts = append(opts, faultconn.WithFailAfter(failAfter))
	}
	return opts
}

// run starts every shard's paced egress pump (each with its own egress
// writer and fault plan instance), then reads each listen socket under its
// own crash-only supervisor until the sockets are closed. Queue-full and
// unknown-class drops are deliberate policy (recorded in the metrics), and
// transient read errors (injected by -fault.ingress, or real EAGAIN-class
// conditions) are absorbed and counted, so only hard socket errors end a
// loop. A hard error on any reader closes the other sockets, so run returns
// the first error instead of limping on with a partial listener set.
func (g *gateway) run() error {
	if err := g.dp.Start(func(int) hpfq.PacketWriter { return newEgress(g.fault) }); err != nil {
		return err
	}
	if len(g.readers) == 1 {
		return g.readers[0].loop()
	}
	errc := make(chan error, len(g.readers))
	for _, r := range g.readers {
		go func(r *gwReader) { errc <- r.loop() }(r)
	}
	var first error
	for range g.readers {
		if err := <-errc; err != nil {
			if first == nil {
				first = err
			}
			for _, c := range g.listens {
				c.Close() // unblock the sibling readers
			}
		}
	}
	return first
}

// loop is one reader's supervisor: restart after recovered panics, exit on
// clean close or hard socket error.
func (r *gwReader) loop() error {
	for {
		err, panicked := r.readOnce()
		if !panicked {
			return err
		}
		r.g.restarts.Add(1)
	}
}

// readOnce runs the ingress loop until a clean exit (socket closed or hard
// error) or a recovered panic, which costs only the datagram being handled:
// the restarted loop forwards the rest of its batch. Each read fills a
// batch of pooled buffers with one recvmmsg, and datagrams go to the engine
// without copying: ownership transfers on successful ingest, and a rejected
// datagram's buffer is reused for a later read.
func (r *gwReader) readOnce() (err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			fmt.Fprintf(errOut, "hpfqgw: ingress panic recovered, restarting reader: %v\n", p)
		}
	}()
	for {
		for r.next < r.n {
			i := r.next
			r.next++
			if !r.forward(i) {
				return nil, false
			}
		}
		n, err := r.batch.read(r.rd)
		r.n, r.next = n, 0
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil, false
			}
			if hpfq.IsTransientIOError(err) {
				r.g.readFaults.Add(1)
				continue // the supervised reader outlives transient faults
			}
			return err, false
		}
	}
}

// forward classifies datagram i of the batch and stages it on its shard's
// engine, reporting false once the flow table or the engine has closed.
// Queue-full and unknown-class refusals are accounted by the data-plane's
// metrics and leave the buffer with the batch.
func (r *gwReader) forward(i int) bool {
	g := r.g
	b := r.batch.view[i]
	if len(b) == 0 {
		return true
	}
	src := r.src.Source(i)
	shard := r.shard
	if shard < 0 {
		shard = g.dp.ShardOf(flowKey(src))
	}
	eng := g.dp.Shard(shard)
	if eng.HealthState() >= hpfq.Overloaded && !g.ft.has(src) {
		// Brownout: existing flows keep their service, new clients are
		// refused until pressure recedes. Accounted as a "shed" drop.
		// The gate is per shard — one overloaded shard refuses its new
		// clients while the others keep admitting theirs.
		eng.RecordShed(g.classify(src, b), len(b), hpfq.ShedBrownout)
		return true
	}
	f, err := g.ft.lookup(src, shard)
	if err != nil {
		// A transient flow-setup failure drops this datagram.
		return !errors.Is(err, net.ErrClosed)
	}
	if r.dec != nil && hpfq.IsFECDatagram(b) {
		// FEC receive side: unwrap sources, absorb repairs, and forward
		// whatever the decoder delivers — the unwrapped source plus any
		// erased datagrams it reconstructed. Repairs and duplicates
		// deliver nothing; malformed headers are dropped here.
		outs, derr := r.dec.Push(b)
		delivered := false
		for _, ob := range outs {
			switch err := eng.IngestCtx(g.classify(src, ob), ob, f); {
			case err == nil:
				delivered = true
			case errors.Is(err, hpfq.ErrDataplaneClosed):
				return false
			}
		}
		if delivered {
			// A delivered source aliases the slot's buffer (the decoder
			// unwraps in place), so the engine may own it now.
			r.batch.take(i)
		}
		if derr == nil {
			r.maybeFECFeedback()
		}
		return true
	}
	switch err := eng.IngestCtx(g.classify(src, b), b, f); {
	case err == nil:
		r.batch.take(i) // the engine owns b now
	case errors.Is(err, hpfq.ErrDataplaneClosed):
		return false
	}
	return true
}

// maybeFECFeedback periodically reports this reader's decoder results to the
// data-plane: recovered/unrecoverable counts land in the metrics (once), and
// the decoder's loss estimate drives the adaptive controller of every
// locally protected class on every shard (-fec or '!fec', adaptive with
// -fec.adapt). Loss
// observed toward us is a proxy for loss on the path we send over — the
// right signal when the two directions share fate, and a no-op when no local
// class is protected.
func (r *gwReader) maybeFECFeedback() {
	r.fecSeen++
	if r.fecSeen%64 != 0 {
		return
	}
	st := r.dec.Stats()
	rec := int(st.Recovered - r.lastRec)
	unrec := int(st.Unrecoverable - r.lastUnrec)
	r.lastRec, r.lastUnrec = st.Recovered, st.Unrecoverable
	est := r.dec.LossEstimate()
	if len(r.g.fecClasses) == 0 {
		return
	}
	for _, c := range r.g.fecClasses {
		r.g.dp.FECFeedback(c, rec, unrec, est) // best-effort: errors only say "not protected"
		rec, unrec = 0, 0                      // counts land once; the estimate reaches every class
	}
}

// close stops intake and drains the paced backlog, waiting at most drain (0
// = forever) before giving up; the deadline bounds shutdown when the queues
// hold more than the link can flush in time. The flow table and its sockets
// are torn down either way. Idempotent — concurrent and repeated calls share
// one shutdown and its result.
func (g *gateway) close(drain time.Duration) error {
	g.closeOnce.Do(func() {
		for _, c := range g.listens {
			c.Close()
		}
		done := make(chan error, 1)
		go func() { done <- g.dp.Close() }()
		if drain <= 0 {
			g.closeErr = <-done
		} else {
			select {
			case g.closeErr = <-done:
			case <-time.After(drain):
				g.closeErr = fmt.Errorf("hpfqgw: drain deadline %s exceeded with %d datagrams queued",
					drain, g.dp.Backlog())
			}
		}
		g.ft.close()
	})
	return g.closeErr
}

// byte0Classifier maps the first payload byte onto the class list, so test
// traffic can steer itself explicitly.
func byte0Classifier(classes []int) classifier {
	return func(_ netip.AddrPort, payload []byte) int {
		return classes[int(payload[0])%len(classes)]
	}
}

// hashClassifier maps the client endpoint's flow key onto the class list,
// giving each sender a sticky class without any packet marking.
func hashClassifier(classes []int) classifier {
	return func(src netip.AddrPort, _ []byte) int {
		return classes[flowKey(src)%uint64(len(classes))]
	}
}

func newClassifier(name string, classes []int) (classifier, error) {
	if len(classes) == 0 {
		return nil, errors.New("no classes configured")
	}
	sorted := append([]int(nil), classes...)
	sort.Ints(sorted)
	switch name {
	case "byte0":
		return byte0Classifier(sorted), nil
	case "hash":
		return hashClassifier(sorted), nil
	}
	return nil, fmt.Errorf("unknown classifier %q (want hash or byte0)", name)
}

// parseClasses parses a flat class spec "id=rate,id=rate,..." with rates in
// bits/sec (floats, so 5e6 works; NaN and Inf are refused).
func parseClasses(spec string) (ids []int, rates []float64, err error) {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("class %q: want id=rate", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, nil, fmt.Errorf("class %q: bad id: %v", part, err)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, nil, fmt.Errorf("class %q: bad rate", part)
		}
		ids = append(ids, id)
		rates = append(rates, rate)
	}
	if len(ids) == 0 {
		return nil, nil, errors.New("empty class spec")
	}
	return ids, rates, nil
}

// parseGilbert parses the -fault.gilbert clause
// "pGoodBad,pBadGood[,dropGood,dropBad]" into the four
// faultconn.WithGilbertElliott parameters (dropGood defaults to 0, dropBad
// to 1: clean good state, every bad-state datagram lost). Empty input means
// the flag is unset: nil, no error.
func parseGilbert(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 && len(parts) != 4 {
		return nil, fmt.Errorf("fault.gilbert %q: want pGoodBad,pBadGood[,dropGood,dropBad]", s)
	}
	out := []float64{0, 0, 0, 1}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("fault.gilbert %q: %v", s, err)
		}
		if !(v >= 0 && v <= 1) { // NaN fails both
			return nil, fmt.Errorf("fault.gilbert %q: %v outside [0,1]", s, v)
		}
		out[i] = v
	}
	return out, nil
}

// parseFEC parses the -fec spec "id=scheme,id=scheme,..." (scheme in the
// hpfq.ParseFECSpec grammar, e.g. "0=rs-8-2,1=xor-8") into class ids and
// their geometries, one spec per id. An empty spec is no FEC.
func parseFEC(spec string) ([]int, []hpfq.FECSpec, error) {
	if spec == "" {
		return nil, nil, nil
	}
	var ids []int
	var specs []hpfq.FECSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("fec %q: want id=spec", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, nil, fmt.Errorf("fec %q: bad class id: %v", part, err)
		}
		fspec, err := hpfq.ParseFECSpec(strings.TrimSpace(kv[1]))
		if err != nil {
			return nil, nil, fmt.Errorf("fec %q: %v", part, err)
		}
		ids = append(ids, id)
		specs = append(specs, fspec)
	}
	if len(ids) == 0 {
		return nil, nil, errors.New("empty fec spec")
	}
	return ids, specs, nil
}

// parseTopo parses a link-sharing tree spec, e.g.
// "root=1(agg=3(a=2:0,b=1:1),c=1:2)", optionally with per-node policies
// ("root=1:WF2Q+(video=3:SP(hd=2:0,sd=1:1),bulk=1:2)"). This is exactly the
// simulator's grammar — see hpfq.ParseTopology.
func parseTopo(spec string) (*hpfq.Topology, error) {
	return hpfq.ParseTopology(spec)
}
