// Package obs is the observability layer for the whole stack: a
// zero-dependency (standard library only) metrics and trace substrate
// shared by every scheduler, hierarchy node, link, the data-plane engine,
// and the DES kernel.
//
// Two facilities, independently switchable:
//
//   - Metrics: cumulative counters and distributions (packets/bits
//     enqueued, dequeued, dropped; current and max queue depth; per-session
//     delay min/mean/max plus a fixed-bucket histogram; measured worst-case
//     fair index against the session's guaranteed rate), frozen on demand
//     into a Metrics snapshot.
//   - Tracing: per-event hooks (Enqueue, Dequeue with virtual start/finish
//     and system virtual time, Drop) delivered to a Tracer. A nil tracer
//     costs one predictable branch per packet; bundled tracers record into
//     a fixed-size ring (RingTracer) or stream JSON lines (JSONLTracer).
//
// Collector is the embeddable engine behind both. The zero value is a
// disabled collector whose record methods return after a single flag test,
// so instrumented hot paths stay within noise of uninstrumented ones (see
// BenchmarkMetricsOverhead at the repository root).
//
// The programmable-scheduler literature (Sivaraman et al., "Programmable
// Packet Scheduling"; Alcoz et al., "Everything Matters in Programmable
// Packet Scheduling") treats per-decision visibility — virtual-time values,
// eligibility, rank at dequeue — as the prerequisite for evaluating any PFQ
// variant; this package provides exactly that for the paper's algorithms.
package obs

import (
	"slices"
	"sort"
)

// DelayBuckets are the upper bounds, in seconds, of the fixed delay
// histogram buckets. A delay d lands in the first bucket whose bound is
// >= d; delays above the last bound land in the overflow bucket, so a
// histogram has len(DelayBuckets)+1 counters.
var DelayBuckets = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// NumDelayBuckets is the number of histogram counters, including the
// overflow bucket.
const NumDelayBuckets = len(DelayBuckets) + 1

// Drop reasons shared across the stack. Components record drops tagged with
// one of these (or their own string) via Collector.RecordDropReason; the
// per-reason counters appear in Metrics.DropReasons and on trace events.
const (
	// DropTail: the class's staging queue was at its packet cap (tail-drop).
	DropTail = "tail-drop"
	// DropBytes: the class's queued bytes (or cost) were at their cap.
	DropBytes = "byte-cap"
	// DropClosed: the datagram arrived after shutdown began.
	DropClosed = "closed"
	// DropWrite: the egress write failed fatally (an error classified as
	// permanent) after the packet was scheduled. Write-error drops are
	// recorded post-dequeue, so they inflate Offered relative to
	// arrival-time drops.
	DropWrite = "write-error"
	// DropRetries: the egress write kept failing transiently until the
	// retry budget was exhausted. Recorded post-dequeue, like DropWrite.
	DropRetries = "retry-exhausted"
	// DropCoDel: the AQM policy dropped the packet at dequeue because its
	// sojourn time stayed above the CoDel target. Recorded post-dequeue.
	DropCoDel = "codel"
	// DropPanic: the packet was in flight (dequeued, not yet written) when
	// the pump crashed and restarted. Recorded post-dequeue.
	DropPanic = "pump-panic"
	// DropDraining: the datagram arrived for a class the control plane is
	// removing; only already-queued packets drain, new arrivals are refused.
	DropDraining = "draining"
	// DropShed: the overload controller refused the packet at arrival
	// because its class is currently shedding (priority-aware load
	// shedding under degraded/overloaded health states). Like DropTail,
	// shed packets never enter a queue.
	DropShed = "shed"
)

// Shed causes: the reason tags recorded alongside DropShed in
// Metrics.ShedReasons, distinguishing *why* the overload controller
// refused the packet.
const (
	// ShedPressure: the class was selected by the shed order because the
	// smoothed pressure score is in the degraded/overloaded band.
	ShedPressure = "pressure"
	// ShedBrownout: a brownout refusal — the engine (or gateway) declined
	// work categorically, e.g. admission of a new flow while overloaded.
	ShedBrownout = "brownout"
)

// Retry reasons shared across the stack, recorded via
// Collector.RecordRetry. A retry is not a drop: the packet stays in flight
// and is re-attempted, so retries appear in their own counters.
const (
	// RetryTransient: an egress write failed with a transient error
	// (EAGAIN-style) and will be re-attempted after backoff.
	RetryTransient = "write-transient"
)

// Counter counts packets and their cumulative length in bits.
type Counter struct {
	Packets int64
	Bits    float64
}

func (c *Counter) add(bits float64) {
	c.Packets++
	c.Bits += bits
}

// DelayStats summarizes the queueing delays observed for one session:
// extremes, mean, and a fixed-bucket histogram over DelayBuckets.
type DelayStats struct {
	Count int64
	Min   float64
	Max   float64
	Sum   float64
	Hist  [NumDelayBuckets]int64
}

// Mean returns the mean observed delay, or 0 before the first sample.
func (d DelayStats) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

func (d *DelayStats) observe(delay float64) {
	if d.Count == 0 || delay < d.Min {
		d.Min = delay
	}
	if delay > d.Max {
		d.Max = delay
	}
	d.Count++
	d.Sum += delay
	d.Hist[bucketOf(delay)]++
}

func bucketOf(delay float64) int {
	for i, b := range DelayBuckets {
		if delay <= b {
			return i
		}
	}
	return len(DelayBuckets)
}

// SessionMetrics is the per-session (or per-child, or per-class) slice of a
// Metrics snapshot.
type SessionMetrics struct {
	ID   int
	Rate float64 // guaranteed rate in bits/sec (0 when the server has none)

	Enqueued Counter
	Dequeued Counter
	Dropped  Counter
	// Retried counts egress re-attempts for this session's packets. A
	// retried packet is still in flight, so retries are disjoint from both
	// Dequeued (which counted it once) and Dropped.
	Retried Counter

	QueueLen    int
	MaxQueueLen int

	// Delay holds dequeue-time-minus-enqueue-time samples. For servers
	// driven by the DES this is the queueing delay up to the start of
	// transmission; the Link measures the full sojourn including
	// transmission. Reference-time hierarchy nodes do not collect delays.
	Delay DelayStats

	// WFI is the measured worst-case fair index in seconds: the largest
	// observed normalized service lag (guaranteed service since the session
	// became backlogged, minus actual service, divided by the guaranteed
	// rate). Theorem 4 bounds this near one packet time for WF²Q+;
	// WFQ's grows with the number of sessions.
	WFI float64
}

// Offered returns the number of packets presented to the server for this
// session: accepted (enqueued) plus dropped.
func (s SessionMetrics) Offered() int64 {
	return s.Enqueued.Packets + s.Dropped.Packets
}

// Conserved reports the per-session conservation law:
// enqueued == dequeued + queued (drops are counted separately and never
// enter a queue).
func (s SessionMetrics) Conserved() bool {
	return s.Enqueued.Packets == s.Dequeued.Packets+int64(s.QueueLen)
}

// Metrics is a point-in-time snapshot of one server's counters. Snapshots
// are plain values: safe to retain, compare, and serialize.
type Metrics struct {
	Name    string  // algorithm or component name
	Rate    float64 // configured server rate in bits/sec
	Enabled bool    // false when the collector never ran (all zeros)

	Enqueued Counter
	Dequeued Counter
	Dropped  Counter
	// Retried counts egress re-attempts recorded with RecordRetry. Retries
	// are events on packets still in flight, disjoint from drops.
	Retried Counter

	QueueLen    int
	MaxQueueLen int

	// BatchWrites counts egress WriteBatch deliveries recorded with
	// RecordBatchWrite, and BatchedPackets the datagrams they carried —
	// batch-level visibility on top of the per-packet counters (a batched
	// packet is still a normal dequeue; these add no conservation terms).
	BatchWrites    int64
	BatchedPackets int64

	// FEC counters, recorded with RecordFEC. Encoded counts source
	// datagrams stamped into FEC blocks; RepairSent counts repair datagrams
	// handed to repair classes (they then flow through the normal
	// enqueue/dequeue counters of their class). Recovered and Unrecoverable
	// arrive via receiver feedback: erased datagrams the far side
	// reconstructed, and erasures it abandoned. Feedback events touch no
	// conservation terms — the loss happened on the wire, not in a queue.
	FECEncoded       int64
	FECRepairSent    int64
	FECRecovered     int64
	FECUnrecoverable int64

	// Shed counts packets refused by the overload controller, recorded
	// with RecordShed. Every shed is also a drop with reason DropShed
	// (it flows into Dropped and DropReasons), so conservation laws are
	// unaffected; the dedicated counter and the ShedReasons breakdown by
	// cause (ShedPressure, ShedBrownout, …) exist so operators can see
	// overload refusals without string-matching drop reasons.
	Shed        Counter
	ShedReasons map[string]Counter

	// BrownoutTransitions counts health-state crossings of the brownout
	// boundary (entering or leaving overloaded/wedged), recorded with
	// RecordBrownoutTransition. WatchdogStalls counts pump stall
	// detections recorded with RecordWatchdogStall. Both are events, not
	// packets: no conservation terms.
	BrownoutTransitions int64
	WatchdogStalls      int64

	// DropReasons breaks Dropped down by the reason tag passed to
	// RecordDropReason. Untagged drops (RecordDrop) are not listed, so the
	// per-reason counters sum to at most Dropped.
	DropReasons map[string]Counter

	// RetryReasons breaks Retried down by the reason tag passed to
	// RecordRetry (the Retry* constants, or any component-specific string).
	RetryReasons map[string]Counter

	Sessions []SessionMetrics // sorted by ID
}

// Session returns the snapshot slice for one session id.
func (m Metrics) Session(id int) (SessionMetrics, bool) {
	i := sort.Search(len(m.Sessions), func(i int) bool { return m.Sessions[i].ID >= id })
	if i < len(m.Sessions) && m.Sessions[i].ID == id {
		return m.Sessions[i], true
	}
	return SessionMetrics{}, false
}

// Offered returns the number of packets presented to the server: accepted
// (enqueued) plus dropped.
func (m Metrics) Offered() int64 { return m.Enqueued.Packets + m.Dropped.Packets }

// AvgBatch returns the mean datagrams per egress batch write, or 0 when no
// batch writes were recorded.
func (m Metrics) AvgBatch() float64 {
	if m.BatchWrites == 0 {
		return 0
	}
	return float64(m.BatchedPackets) / float64(m.BatchWrites)
}

// Conserved reports the conservation law at the server and at every
// session: offered == dequeued + queued + dropped, i.e.
// enqueued == dequeued + queued.
func (m Metrics) Conserved() bool {
	if m.Enqueued.Packets != m.Dequeued.Packets+int64(m.QueueLen) {
		return false
	}
	for _, s := range m.Sessions {
		if !s.Conserved() {
			return false
		}
	}
	return true
}

// SimMetrics are the DES kernel counters: how much work the simulator did
// and how fast it did it.
type SimMetrics struct {
	EventsScheduled uint64  // total events ever pushed into the heap
	EventsFired     uint64  // events executed
	EventsPending   int     // events still in the heap
	HeapHighWater   int     // largest heap size observed
	SimTime         float64 // current simulation clock, seconds
	WallSeconds     float64 // wall-clock time spent inside Run/RunAll
}

// SimPerWall returns the ratio of simulated seconds to wall-clock seconds
// spent executing events (0 before any timed run).
func (m SimMetrics) SimPerWall() float64 {
	if m.WallSeconds <= 0 {
		return 0
	}
	return m.SimTime / m.WallSeconds
}

// Observable is the uniform observability surface: exactly the methods
// Collector promotes into every server that embeds it. The Scheduler and
// NodeScheduler interfaces embed it so callers can enable metrics or attach
// tracers without knowing the concrete algorithm.
type Observable interface {
	// EnableMetrics switches metric accumulation on.
	EnableMetrics()
	// MetricsEnabled reports whether metrics are being accumulated.
	MetricsEnabled() bool
	// SetTracer installs (or, with nil, removes) a per-event tracer.
	SetTracer(t Tracer)
	// Snapshot freezes the counters into a Metrics value.
	Snapshot() Metrics
}

// sessionReg is what a collector keeps of every session it has seen,
// active or not: that the session exists, and its guaranteed rate.
type sessionReg struct {
	seen bool
	rate float64
}

// sessionState is the live per-session accumulator behind SessionMetrics.
type sessionState struct {
	enq, deq, drop, retry Counter
	depth                 int
	maxDepth              int

	delay    DelayStats
	arrivals floatFIFO // enqueue times of queued packets, FIFO

	busy      bool
	busyStart float64
	served    float64 // bits served since busyStart
	wfi       float64
}

// Collector accumulates metrics and publishes trace events for one server.
// It is designed to be embedded by value in a scheduler: the zero value is
// fully disabled, record calls then cost one branch, and the promoted
// EnableMetrics / SetTracer / MetricsEnabled / Snapshot methods become the
// server's public observability surface.
//
// Collector is not internally synchronized; callers that are concurrent
// (the data-plane engine) must hold their own lock around record and
// Snapshot calls.
// Everything driven by the single-threaded DES needs no locking.
type Collector struct {
	name    string
	rate    float64
	refTime bool // virtual/reference-time server: no delay or WFI stats

	metrics bool
	tracer  Tracer
	active  bool // metrics || tracer != nil

	enq, deq, drop, retry Counter
	depth                 int
	maxDepth              int
	batchWrites           int64
	batchPkts             int64
	fecEnc                int64
	fecRep                int64
	fecRec                int64
	fecUnrec              int64
	shed                  Counter
	shedReasons           map[string]Counter // shed counters keyed by cause tag
	brownouts             int64
	watchdogStalls        int64
	reasons               map[string]Counter // drop counters keyed by reason tag
	retryReasons          map[string]Counter // retry counters keyed by reason tag

	// regs holds every session by id. stats holds the accumulators, in
	// step with regs once the collector is active and empty before, so an
	// inactive collector (every node of a large tree run without metrics
	// or tracing) costs 16 bytes per session.
	regs  []sessionReg
	stats []sessionState
}

// InitObs names the collector (normally the algorithm name) and records the
// configured server rate. Constructors call it once; it does not enable
// anything.
func (c *Collector) InitObs(name string, rate float64) {
	c.name = name
	c.rate = rate
}

// InitNodeObs is InitObs for reference-time servers (hierarchy node
// schedulers): counts, depths, and trace events are collected, but delay
// and WFI statistics — meaningless in a clock measured in normalized work —
// are skipped, and event times are in the node's own virtual time.
func (c *Collector) InitNodeObs(name string, rate float64) {
	c.InitObs(name, rate)
	c.refTime = true
}

// EnableMetrics switches metric accumulation on. Enabling mid-run is legal:
// counters start from zero at that instant, and delay samples begin with
// packets enqueued after the switch.
func (c *Collector) EnableMetrics() {
	c.metrics = true
	c.activate()
}

// MetricsEnabled reports whether EnableMetrics was called.
func (c *Collector) MetricsEnabled() bool { return c.metrics }

// SetTracer installs (or, with nil, removes) the per-event tracer.
func (c *Collector) SetTracer(t Tracer) {
	c.tracer = t
	if t != nil {
		c.activate()
	} else {
		c.active = c.metrics
	}
}

// activate turns recording on, with an accumulator for every session seen
// so far.
func (c *Collector) activate() {
	c.active = true
	c.growStats()
}

// growStats extends stats to cover every session in regs.
func (c *Collector) growStats() {
	if n := len(c.regs) - len(c.stats); n > 0 {
		c.stats = append(c.stats, make([]sessionState, n)...)
	}
}

// RegisterSession declares a session and its guaranteed rate, so the
// snapshot can report rates and measure WFI. Registering a session again
// after a live retune updates its rate and keeps its counters. Sessions that are never
// registered (FIFO servers, links) are created lazily with rate 0 on first
// use.
func (c *Collector) RegisterSession(id int, rate float64) {
	c.reg(id).rate = rate
}

// ReserveSessions makes room for session ids below n, so a builder that
// registers them all grows the registrations once.
func (c *Collector) ReserveSessions(n int) {
	if n > len(c.regs) {
		c.regs = slices.Grow(c.regs, n-len(c.regs))
	}
}

// reg returns session id's registration, marking it seen. regs never
// shrinks, so the room past its length (ReserveSessions') is still zeroed
// and a registration within it only reslices.
func (c *Collector) reg(id int) *sessionReg {
	if n := id + 1 - len(c.regs); n > 0 {
		c.regs = slices.Grow(c.regs, n)[:id+1]
	}
	r := &c.regs[id]
	r.seen = true
	return r
}

// session returns session id's accumulator. Only an active collector has
// them.
func (c *Collector) session(id int) *sessionState {
	c.reg(id)
	c.growStats()
	return &c.stats[id]
}

// RecordEnqueue accounts one packet of the given length accepted for the
// session at time now (seconds; node collectors pass their virtual time).
func (c *Collector) RecordEnqueue(now float64, session int, bits float64) {
	if !c.active {
		return
	}
	c.recordEnqueue(now, session, bits)
}

func (c *Collector) recordEnqueue(now float64, session int, bits float64) {
	s := c.session(session)
	if c.metrics {
		c.enq.add(bits)
		s.enq.add(bits)
		c.depth++
		if c.depth > c.maxDepth {
			c.maxDepth = c.depth
		}
		s.depth++
		if s.depth > s.maxDepth {
			s.maxDepth = s.depth
		}
		if !c.refTime {
			s.arrivals.push(now)
			if !s.busy {
				s.busy = true
				s.busyStart = now
				s.served = 0
			}
		}
	}
	if c.tracer != nil {
		c.tracer.Enqueue(Event{
			Type: EventEnqueue, Time: now, Node: c.name,
			Session: session, Bits: bits, QueueLen: s.depth,
		})
	}
}

// RecordDequeue accounts one packet leaving the server at time now, for
// servers without a virtual clock (DRR, FIFO, links, hierarchies).
func (c *Collector) RecordDequeue(now float64, session int, bits float64) {
	if !c.active {
		return
	}
	c.recordDequeue(now, session, bits, 0, 0, 0, false)
}

// RecordDequeueVT is RecordDequeue carrying the virtual-time fields of the
// scheduling decision: the served packet's virtual start and finish times
// and the system virtual time after the selection.
func (c *Collector) RecordDequeueVT(now float64, session int, bits, vstart, vfinish, sysVT float64) {
	if !c.active {
		return
	}
	c.recordDequeue(now, session, bits, vstart, vfinish, sysVT, true)
}

func (c *Collector) recordDequeue(now float64, session int, bits, vstart, vfinish, sysVT float64, hasVT bool) {
	s := c.session(session)
	if c.metrics {
		c.deq.add(bits)
		s.deq.add(bits)
		c.depth--
		s.depth--
		if !c.refTime {
			if arr, ok := s.arrivals.pop(); ok {
				s.delay.observe(now - arr)
			}
			if rate := c.regs[session].rate; s.busy && rate > 0 {
				// Normalized service lag at the instant this packet is
				// selected: what the guaranteed rate promised since the
				// backlog began, minus what was actually served.
				lag := (now-s.busyStart)*rate - s.served
				if w := lag / rate; w > s.wfi {
					s.wfi = w
				}
				s.served += bits
			}
			if s.depth == 0 {
				s.busy = false
			}
		}
	}
	if c.tracer != nil {
		c.tracer.Dequeue(Event{
			Type: EventDequeue, Time: now, Node: c.name,
			Session: session, Bits: bits, QueueLen: s.depth,
			HasVT: hasVT, VirtualStart: vstart, VirtualFinish: vfinish, SystemVT: sysVT,
		})
	}
}

// RecordDrop accounts one packet rejected at arrival (buffer limit, class
// queue limit). Dropped packets never enter a queue, so depth is untouched.
func (c *Collector) RecordDrop(now float64, session int, bits float64) {
	if !c.active {
		return
	}
	c.recordDrop(now, session, bits, "")
}

// RecordDropReason is RecordDrop tagged with a drop reason (one of the Drop*
// constants, or any component-specific string). Tagged drops additionally
// accumulate into the snapshot's DropReasons map and carry the reason on
// their trace event.
func (c *Collector) RecordDropReason(now float64, session int, bits float64, reason string) {
	if !c.active {
		return
	}
	c.recordDrop(now, session, bits, reason)
}

func (c *Collector) recordDrop(now float64, session int, bits float64, reason string) {
	s := c.session(session)
	if c.metrics {
		c.drop.add(bits)
		s.drop.add(bits)
		if reason != "" {
			if c.reasons == nil {
				c.reasons = make(map[string]Counter)
			}
			r := c.reasons[reason]
			r.add(bits)
			c.reasons[reason] = r
		}
	}
	if c.tracer != nil {
		c.tracer.Drop(Event{
			Type: EventDrop, Time: now, Node: c.name,
			Session: session, Bits: bits, QueueLen: s.depth,
			Reason: reason,
		})
	}
}

// RecordShed accounts one packet refused by the overload controller for
// the session: a drop with reason DropShed (flowing into the normal drop
// counters and trace events) plus the dedicated Shed counter, broken down
// by cause (ShedPressure, ShedBrownout, or any component-specific string).
func (c *Collector) RecordShed(now float64, session int, bits float64, cause string) {
	if !c.active {
		return
	}
	if c.metrics {
		c.shed.add(bits)
		if cause != "" {
			if c.shedReasons == nil {
				c.shedReasons = make(map[string]Counter)
			}
			r := c.shedReasons[cause]
			r.add(bits)
			c.shedReasons[cause] = r
		}
	}
	c.recordDrop(now, session, bits, DropShed)
}

// RecordBrownoutTransition accounts one health-state crossing of the
// brownout boundary (entering or leaving overloaded/wedged).
func (c *Collector) RecordBrownoutTransition() {
	if !c.active || !c.metrics {
		return
	}
	c.brownouts++
}

// RecordWatchdogStall accounts one pump stall detection by the watchdog.
func (c *Collector) RecordWatchdogStall() {
	if !c.active || !c.metrics {
		return
	}
	c.watchdogStalls++
}

// RecordRetry accounts one egress re-attempt of a packet for the session,
// tagged with a retry reason (one of the Retry* constants, or any
// component-specific string). A retry is an event on a packet still in
// flight: it changes no enqueue/dequeue/drop counter and no queue depth, so
// conservation laws are unaffected. Tracers that implement RetryTracer
// receive the event.
func (c *Collector) RecordRetry(now float64, session int, bits float64, reason string) {
	if !c.active {
		return
	}
	s := c.session(session)
	if c.metrics {
		c.retry.add(bits)
		s.retry.add(bits)
		if reason != "" {
			if c.retryReasons == nil {
				c.retryReasons = make(map[string]Counter)
			}
			r := c.retryReasons[reason]
			r.add(bits)
			c.retryReasons[reason] = r
		}
	}
	if rt, ok := c.tracer.(RetryTracer); ok {
		rt.Retry(Event{
			Type: EventRetry, Time: now, Node: c.name,
			Session: session, Bits: bits, QueueLen: s.depth,
			Reason: reason,
		})
	}
}

// RecordBatchWrite accounts one egress batch delivery of pkts datagrams
// totalling bits. Batches are an egress-side grouping of already-dequeued
// packets: no enqueue/dequeue/drop counter or queue depth changes, so
// conservation laws are unaffected. Alloc-free by design — it sits on the
// data-plane's zero-allocation pump path.
func (c *Collector) RecordBatchWrite(now float64, pkts int, bits float64) {
	if !c.active || pkts <= 0 {
		return
	}
	if c.metrics {
		c.batchWrites++
		c.batchPkts += int64(pkts)
	}
}

// RecordFEC accounts forward-error-correction activity: encoded source
// datagrams and repair datagrams emitted on the send side, and — via
// receiver feedback — erasures recovered or abandoned on the far side. Any
// argument may be zero; all are deltas. Like RecordBatchWrite it changes no
// conservation terms and is alloc-free on the pump path.
func (c *Collector) RecordFEC(encoded, repairSent, recovered, unrecoverable int) {
	if !c.active || !c.metrics {
		return
	}
	c.fecEnc += int64(encoded)
	c.fecRep += int64(repairSent)
	c.fecRec += int64(recovered)
	c.fecUnrec += int64(unrecoverable)
}

// Snapshot freezes the counters into a Metrics value. Cheap enough to call
// periodically while a simulation runs.
func (c *Collector) Snapshot() Metrics {
	m := Metrics{
		Name:                c.name,
		Rate:                c.rate,
		Enabled:             c.metrics,
		Enqueued:            c.enq,
		Dequeued:            c.deq,
		Dropped:             c.drop,
		Retried:             c.retry,
		QueueLen:            c.depth,
		MaxQueueLen:         c.maxDepth,
		BatchWrites:         c.batchWrites,
		BatchedPackets:      c.batchPkts,
		FECEncoded:          c.fecEnc,
		FECRepairSent:       c.fecRep,
		FECRecovered:        c.fecRec,
		FECUnrecoverable:    c.fecUnrec,
		Shed:                c.shed,
		BrownoutTransitions: c.brownouts,
		WatchdogStalls:      c.watchdogStalls,
	}
	if len(c.shedReasons) > 0 {
		m.ShedReasons = make(map[string]Counter, len(c.shedReasons))
		for r, n := range c.shedReasons {
			m.ShedReasons[r] = n
		}
	}
	if len(c.reasons) > 0 {
		m.DropReasons = make(map[string]Counter, len(c.reasons))
		for r, n := range c.reasons {
			m.DropReasons[r] = n
		}
	}
	if len(c.retryReasons) > 0 {
		m.RetryReasons = make(map[string]Counter, len(c.retryReasons))
		for r, n := range c.retryReasons {
			m.RetryReasons[r] = n
		}
	}
	for id, r := range c.regs {
		if !r.seen {
			continue
		}
		var s sessionState
		if id < len(c.stats) {
			s = c.stats[id]
		}
		m.Sessions = append(m.Sessions, SessionMetrics{
			ID:          id,
			Rate:        r.rate,
			Enqueued:    s.enq,
			Dequeued:    s.deq,
			Dropped:     s.drop,
			Retried:     s.retry,
			QueueLen:    s.depth,
			MaxQueueLen: s.maxDepth,
			Delay:       s.delay,
			WFI:         s.wfi,
		})
	}
	return m
}

// floatFIFO is a slice-backed queue of float64 with amortized O(1) push and
// pop (same compaction scheme as packet.FIFO).
type floatFIFO struct {
	buf  []float64
	head int
}

func (q *floatFIFO) push(v float64) { q.buf = append(q.buf, v) }

func (q *floatFIFO) pop() (float64, bool) {
	if q.head >= len(q.buf) {
		return 0, false
	}
	v := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v, true
}
