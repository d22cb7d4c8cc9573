// Package dataplane is a concurrent UDP egress engine driven by the paper's
// schedulers: real datagrams in, WF²Q+-ordered and rate-paced datagrams out.
// It is the step from reproducing the paper inside a discrete-event
// simulation to serving traffic on a link.
//
// The pipeline is
//
//	Ingest → admission + inbox → scheduler pump → Writer
//
// Producers (any number of goroutines) call Ingest, which classifies a
// datagram into a class, enforces the class's drop policy — tail-drop at the
// packet cap plus a byte cap, with every drop recorded in the obs layer
// tagged by reason — and appends it to the engine's inbox. A single pump
// goroutine is the only one that moves datagrams through the scheduler
// (DESIGN.md S33): once per batch it refills a token bucket from the
// configured rate and the elapsed wall time, takes the inbox, stages it into
// the scheduler, dequeues every packet the tokens cover in scheduler order
// (an H-PFQ tree: one level under AddClass, or a topology, with WF²Q+ or
// any registered discipline at its nodes), and
// writes the batch to the Writer outside every lock. Between batches it
// sleeps on the pluggable wall clock until the bucket refills or new work
// arrives, so the hot path is a few lock acquisitions and one timer per
// batch, not per packet.
//
// The engine has one way in and one way out, like the paper's H-PFQ
// server: callers read their own sockets and call Ingest, and the pump
// writes to the Writer handed to Start. The in-memory Pipe stands in for a
// socket in tests. Close stops intake and drains the staged backlog
// through the pacer before returning. cmd/hpfqgw wraps the engine into a
// UDP forwarding gateway.
//
// # Batching and buffer ownership
//
// The pump releases packets in token-bucket batches, and the egress side
// keeps them batched: every release is handed to the Writer as WriteBatch
// calls over a []Datagram slab (the sendmmsg shape), in chunks of
// DefaultBatchSize datagrams, so writers amortize their per-call overhead
// across the batch. Retry and backoff operate on the unwritten suffix:
// WriteBatch reports how many datagrams were delivered, the error applies to
// the first unwritten one, and the pump re-offers the rest, resetting the
// backoff whenever the head advances.
//
// Payload buffers travel ingress → staging → egress → release without
// steady-state allocations when the engine owns a BufferPool
// (WithBufferPool). Ownership is a strict hand-off: the producer owns a
// buffer until Ingest/IngestCtx returns nil, from then on the engine owns
// it, and the engine returns it to the pool as soon as the datagram leaves —
// written by the Writer, or dropped by any policy (tail/byte cap happens
// before ownership transfers; CoDel, write-error, retry-exhausted, and
// pump-panic drops release the buffer). Writers must therefore not retain a
// payload slice or a Datagram past the WriteBatch call. When
// Ingest returns an error the producer still owns the buffer and may reuse
// it. Without a pool the engine never recycles and the old
// allocate-per-datagram behavior applies.
//
// # Failure handling
//
// The pump assumes the Writer can fail and the engine must not. Writer
// errors are classified (errclass.go): transient conditions — EAGAIN-style
// buffer exhaustion, timeouts, a momentarily absent UDP peer — are retried
// in place with capped exponential backoff on the engine's clock
// (DefaultRetryLimit, DefaultRetryBackoff, DefaultRetryCap), every attempt
// recorded as a retry in the metrics; fatal errors drop the packet with
// reason "write-error". When the retry budget runs out the packet is
// dropped with reason "retry-exhausted": a datagram leaves its class's FIFO once, so the datagrams of a class that
// survive reach the Writer in ingest order. The pump itself runs under a
// supervisor: a panic out of the Writer (or a tracer) is recovered, the
// in-flight batch is accounted as dropped with reason "pump-panic", and the
// pump restarts, so one bad packet cannot wedge the link. Overload degrades gracefully too: WithAQM replaces
// nothing but adds CoDel (codel.go) to every class, shedding packets whose
// staging sojourn stands above target, keeping latency bounded where
// tail-drop would let it grow with the queue. Every outcome lands in the
// obs layer: drops by reason, retries by reason, and the restart count in
// Status.
package dataplane

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hpfq/internal/hier"
	"hpfq/internal/obs"
	"hpfq/internal/overload"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// Lifecycle and drop-policy errors.
var (
	// ErrClosed is returned by Ingest and Start after Close.
	ErrClosed = errors.New("dataplane: closed")
	// ErrNoClass is returned by Ingest for an unregistered class.
	ErrNoClass = errors.New("dataplane: unknown class")
	// ErrQueueFull is returned by Ingest when the class's staging queue is
	// at its packet or byte cap; the datagram is dropped (tail-drop) and the
	// drop is recorded in the metrics with its reason.
	ErrQueueFull = errors.New("dataplane: class queue full")
	// ErrClassDraining is returned by Ingest for a class RemoveClass is
	// draining: already-staged datagrams still leave in scheduled order, new
	// arrivals are refused (recorded with reason "draining").
	ErrClassDraining = errors.New("dataplane: class draining")
)

// minWait is the shortest pacing sleep, bounding the pump's wakeup frequency
// when the token deficit is tiny.
const minWait = 50 * time.Microsecond

// maxHoldWait caps the pump's sleep while ceilings hold the backlog (a
// release can be L_max/ceil away), keeping its heartbeat fresh for the
// watchdog and the overload sampler.
const maxHoldWait = 10 * time.Millisecond

// The retry policy for transient Writer errors: up to 3 re-attempts per
// packet, backing off 500 µs → 1 ms → 2 ms (doubling, capped at 16 ms).
const (
	DefaultRetryLimit   = 3
	DefaultRetryBackoff = 500 * time.Microsecond
	DefaultRetryCap     = 16 * time.Millisecond
)

// DefaultBatchSize is the ceiling on datagrams per WriteBatch call, and on
// the datagrams staged or dequeued per scheduler-lock hold — sized like a
// sendmmsg vector: big enough to amortize per-call overhead, small enough
// to keep the retry suffix short.
const DefaultBatchSize = 32

// errShortBatch marks a Writer that reported a short batch without an
// error; the pump treats it as a transient stall so the suffix is retried
// with backoff instead of spinning. It classifies as transient.
var errShortBatch = shortBatchError{}

type shortBatchError struct{}

func (shortBatchError) Error() string   { return "dataplane: short batch write" }
func (shortBatchError) Transient() bool { return true }

// classState is one class's admission record: one 64-byte cache line,
// written only under Dataplane.mu — by Ingest, mutations and the overload
// sampler (DESIGN.md S39). The pump never reads it on the packet path: what
// it needs of the class travels in each inboxRecord, and what it writes
// lives in tables indexed by the class's slot (Dataplane.out, .aqm and
// .settled). The class holds accepted − settled datagrams (inbox +
// scheduler), so the ingest caps bound that difference.
type classState struct {
	accepted      int // datagrams accepted since the class took its slot
	acceptedBytes int

	// leaf is the class's scheduler leaf, resolved when the class is
	// created; Ingest copies it into each inbox record.
	leaf hier.Leaf

	// errs caches Ingest's refusal errors by kind, built on the first
	// refusal, so a refused datagram costs no allocation (ingest.go).
	errs *[nRefusals]error

	id       int32 // class id; -1 marks a free slot
	repairOf int32 // the protected class whose FEC repairs this class carries, or -1

	// draining marks a class RemoveClass is retiring: Ingest refuses new
	// datagrams while the staged remainder leaves in scheduled order; the
	// pump finalizes the removal once the class quiesces.
	draining bool

	// shed marks a class the overload controller is currently refusing
	// intake for (overload.go): new arrivals drop with reason "shed"
	// while staged datagrams leave normally.
	shed bool

	_ [16]byte // pads the record to its line
}

// departures counts datagrams, and their bytes, that left the scheduler.
type departures struct{ pkts, bytes int }

// inboxRecord is one accepted datagram on its way from Ingest to the pump:
// everything the pump needs to schedule it, 64 bytes, appended by value
// under mu. Ingest writes a record once and only the pump reads it, so the
// handoff moves each line between the two CPUs once (DESIGN.md S39).
type inboxRecord struct {
	b       []byte
	ctx     any
	leaf    hier.Leaf // its Session is the class id
	arrival float64   // ingest stamp: scheduler arrival and CoDel sojourn basis
	slot    int32
	stamped bool // b is a source the pump's FEC stage prefixed with its header
}

// envelope fuses the scheduler's packet and the Datagram the Writer gets
// into one record per staged datagram; packet.Payload points back at it.
// The pump fills envelopes from inbox records and recycles them on its own
// free list once the datagram leaves the engine, so no other goroutine
// touches one. hier.Tree keeps a reference to the head it dequeued last
// until its next Dequeue, so that envelope is recycled only then.
//
// slot is the datagram's class slot, which the pump's departure tables
// are indexed by. It stays the class's until the scheduler releases the
// datagram: a class holding datagrams cannot be removed. Once released the
// class may go and its slot be reused, so the write side accounts by class
// id (pkt.Session), never through slot.
type envelope struct {
	pkt  packet.Packet
	dg   Datagram
	slot int32
}

// config collects construction options.
type config struct {
	top      *topo.Node
	clock    wallclock.Clock
	capPkts  int
	capBytes int
	burst    float64
	metrics  bool
	tracer   obs.Tracer
	aqm      bool
	pool     *BufferPool
	pol      *pifo.Factory
	nodePols map[string]pifo.Factory

	ov       bool          // overload control (off unless watchdog)
	watchdog time.Duration // pump watchdog timeout (0 = off)

	scale float64 // shard divisor for absolute-rate knobs (0/1 = none)
}

// Option configures a Dataplane at construction.
type Option func(*config)

// WithPolicy schedules with an explicit pifo policy factory instead of the
// named algorithm: it runs in its node form at the root of a flat engine,
// and in topology mode it becomes the default discipline of every interior
// node (overridden per node by WithNodePolicy and by ':policy' topo
// annotations).
func WithPolicy(f pifo.Factory) Option { return func(c *config) { c.pol = &f } }

// WithNodePolicy pins the scheduling policy of one named interior node of
// the topology. It may be repeated for different nodes and takes precedence
// over topo ':policy' annotations and WithPolicy. Ignored in flat mode.
func WithNodePolicy(nodeName string, f pifo.Factory) Option {
	return func(c *config) {
		if c.nodePols == nil {
			c.nodePols = make(map[string]pifo.Factory)
		}
		c.nodePols[nodeName] = f
	}
}

// WithTopology schedules classes hierarchically: the engine builds an H-PFQ
// tree (internal/hier) over top with the chosen algorithm at every interior
// node, and the topology's leaves become the classes — AddClass is then
// disallowed. Without it the engine runs a one-level tree (hier.NewFlat)
// whose classes AddClass grafts.
func WithTopology(top *topo.Node) Option { return func(c *config) { c.top = top } }

// WithClock replaces the wall clock (for tests).
func WithClock(clk wallclock.Clock) Option { return func(c *config) { c.clock = clk } }

// WithQueueCap bounds every class's staging queue to n datagrams; arrivals
// beyond it are tail-dropped and recorded. 0 means unlimited; New refuses
// a negative n.
func WithQueueCap(n int) Option { return func(c *config) { c.capPkts = n } }

// WithByteCap bounds every class's staged bytes to n; arrivals that would
// exceed it are dropped and recorded. 0 means unlimited; New refuses a
// negative n.
func WithByteCap(n int) Option { return func(c *config) { c.capBytes = n } }

// WithBurst sets the token-bucket depth in bits: how much the pump may
// release in one batch after an idle period, trading batching efficiency
// against short-term burstiness. 0 selects the default, 5 ms worth of the
// configured rate; New refuses a negative, NaN or infinite depth.
func WithBurst(bits float64) Option { return func(c *config) { c.burst = bits } }

// WithMetrics enables metric collection on the underlying scheduler from
// construction; read the counters with Snapshot.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithTracer streams the scheduler's per-datagram events (with WF²Q+
// virtual times) to t. The tracer runs under the engine's scheduler lock,
// from the pump and from Ingest callers recording a refusal; it must not
// call back into the Dataplane.
func WithTracer(t obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithBufferPool hands the engine a payload buffer pool (nil selects the
// process-wide SharedBufferPool): once a producer's Ingest succeeds on a
// buffer obtained from the pool, the engine owns it and returns it to the
// pool when the datagram is written or dropped, closing the
// ingress → staging → egress → release cycle without steady-state
// allocations. Without this option the engine never recycles payloads.
func WithBufferPool(p *BufferPool) Option {
	return func(c *config) {
		if p == nil {
			p = sharedPool
		}
		c.pool = p
	}
}

// WithShardScale makes the engine one of n identically configured shards
// that jointly present the user-facing totals: every absolute value it is
// given in whole-link bits — the burst depth, the topology's '^ceil'
// clauses, and the rates and ceilings of later calls (AddClass, SetRate,
// SetCeil, …; see perShard) — is divided by n on the way in. The sharding
// layer (internal/shard) appends it after the caller's options; it is not
// meant for direct use. Packet/byte queue caps are deliberately NOT scaled:
// they bound per-shard memory, and a shard must absorb a full burst that
// hashes onto it alone.
func WithShardScale(n int) Option {
	return func(c *config) {
		if n > 1 {
			c.scale = float64(n)
		}
	}
}

// WithAQM enables CoDel (RFC 8289) on every class as graceful degradation
// under overload: packets whose staging sojourn stays above the 5 ms target
// for a full 100 ms interval are shed at dequeue (reason "codel"), with drop
// pressure growing as interval/sqrt(drops) until the standing queue clears.
// AQM composes with the packet and byte caps: the caps bound memory at
// ingest, the AQM bounds latency at egress.
func WithAQM() Option { return func(c *config) { c.aqm = true } }

// Dataplane is the engine. Construct with New, register classes (flat mode)
// with AddClass, start the pump with Start, feed datagrams with Ingest, and
// stop with Close.
//
// Two locks split the engine (DESIGN.md S33). mu is the admission lock:
// Ingest's checks, the class records and the class index, the inbox of
// accepted datagrams, the settled departure counts, shed flags and
// lifecycle. smu is the scheduler lock: the scheduler tree and its
// obs.Collector, the scheduler's ceilings, the batch's departure counts, the
// CoDel state and the FEC encoders; in the hot path only the pump takes it.
// Lock order is mu before smu, and the pump never takes mu while it holds
// smu; its write phase takes only smu, to record outcomes. Fields written
// under both locks (the class index and the shape of the class tables, leaf
// rates) may be read under either.
//
// The fields are grouped by writer, padded apart, so that no cache line on
// the way from Ingest to the pump has two writers (DESIGN.md S39):
// configuration, what Ingest writes, the class tables, the scheduler, and
// what only the pump writes.
type Dataplane struct {
	rate     float64
	burst    float64
	scale    float64 // shard count behind a sharding front (WithShardScale); 1 alone
	clock    wallclock.Clock
	epoch    time.Time
	capPkts  int
	capBytes int
	pool     *BufferPool // nil: the engine never recycles payload buffers
	bw       Writer      // egress, as handed to Start

	tracer obs.Tracer // construction-time tracer (brownout restores it)

	wake chan struct{} // buffered(1) pump wakeup
	done chan struct{} // closed when the pump exits

	// pace is the live token-refill rate in bits/sec (Float64bits), read
	// lock-free by the pump every batch. It starts equal to rate and only
	// moves under a sharding front's rate splitter (SetPaceRate), which
	// lends an idle shard's slice to busy ones; scheduler virtual-time
	// rates, ceilings, and class guarantees stay pinned to rate so
	// fairness WITHIN the shard is unaffected by the loan.
	pace atomic.Uint64

	// ov is the overload-control state (overload.go): tracker, shed
	// order, brownout switches, pump heartbeat, monitor lifecycle.
	ov ovState

	_ [64]byte

	// Written by Ingest, under mu.
	mu sync.Mutex
	// inbox holds accepted datagrams in arrival order until the pump takes
	// them (ingest.go).
	inbox    []inboxRecord
	accepted int           // datagrams accepted, all classes
	unknown  map[int]error // cached ErrNoClass refusals by class id

	_ [64]byte

	// The class tables, indexed by the class's leaf slot in the tree
	// (hier.Tree.Slot, DESIGN.md S39, S41): the tree is the one class
	// index, and its slot reuse is the tables'. A class keeps its slot from
	// creation to finalized removal. The tables change shape only under
	// both locks.
	classes []classState // admission records, under mu
	// slots is tree, read here for its session table (classLocked), so
	// Ingest does not load the pointer from smu's line, which the pump
	// writes every batch.
	slots *hier.Tree
	// settled counts each class's departures up to the last settle; the
	// pump folds a batch in under mu, once per batch. settledAll sums them:
	// the engine holds accepted − settledAll datagrams.
	settled    []departures
	settledAll int
	// out counts each class's departures in the current batch, and aqm is
	// its CoDel state (nil without WithAQM); the pump writes both under smu.
	out []departures
	aqm []codel

	closed   bool
	started  bool
	restarts int // pump panic-recoveries

	// draining lists classes RemoveClass is retiring; the pump retries
	// finalization each batch until each quiesces.
	draining []int

	// fecList holds the protected classes in class order (fec.go), fixed
	// once the engine starts.
	fecList []*fecState

	_ [64]byte

	smu sync.Mutex
	// tree is the scheduler: a one-level tree in flat mode (hier.NewFlat),
	// the topology's otherwise.
	tree *hier.Tree
	// snow is the scheduler clock: the latest time handed to q, so every
	// Enqueue and Dequeue sees a monotone now.
	snow float64
	// tracePanic parks a panic raised by the tracer's Enqueue or Dequeue
	// hook (guardTracer) until the pump re-raises it.
	tracePanic any

	_ [64]byte

	// The rest is written by the pump goroutine alone.

	// parked and fired let a test on a fake clock see when the pump waits
	// for the clock. Each timed park arms its timer, then stores a fresh
	// mark in parked — odd if a nudge can end the park, even if not (retry
	// and restart backoff) — and the timer stores the same mark in fired.
	// parked is math.MaxInt64 while the pump parks idle, 0 while it runs.
	parked, fired atomic.Int64
	parks         int64 // marks handed out

	// staging is the inbox taken for the current batch; stageHead indexes
	// the first record not yet handed to the scheduler.
	staging   []inboxRecord
	stageHead int
	// settling lists the slots whose datagrams left the scheduler this
	// batch; their out counts are folded into settled under mu at the end.
	settling []int32
	// envFree recycles envelopes whose datagram left the engine, up to
	// maxFreeEnvelopes.
	envFree []*envelope
	// held is the envelope hier.Tree pins until its next Dequeue, and
	// heldFree says it was freed meanwhile (recycled at that Dequeue).
	held     *envelope
	heldFree bool
	scratch  []Datagram // scratch for the current WriteBatch chunk
	bufs     [][]byte   // scratch for the written chunk's buffers (finishWritten)
	// holdWait is the time to the scheduler's next release of a class its
	// ceiling holds back, when a batch found nothing else to send.
	holdWait time.Duration
	// The FEC stage's (fec.go): the earliest block-age deadline, the slots
	// stamped this batch, repairs to admit, and a spare staging buffer.
	fecWait   time.Duration
	fecCharge []int32
	fecReps   []fecRepair
	fecSpare  []inboxRecord

	// inflight is the current token-bucket release between dequeue and
	// write; elements before infHead have reached their final disposition
	// (written or dropped). The supervisor reads the suffix only after the
	// pump panicked, on the same goroutine, to account the lost packets.
	inflight []*envelope
	infHead  int
}

// New returns an engine pacing egress at rate bits/sec using the named
// algorithm ("WF2Q+", "WFQ", "SCFQ", …; see internal/sched) at the nodes of
// its H-PFQ tree. Unknown algorithms, policies with no node form and
// malformed topologies return the registry's sentinel errors.
func New(algorithm string, rate float64, opts ...Option) (*Dataplane, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("dataplane: invalid rate %g", rate)
	}
	cfg := config{clock: wallclock.Real{}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.capPkts < 0 {
		return nil, fmt.Errorf("dataplane: WithQueueCap %d: want 0 (unlimited) or a positive cap", cfg.capPkts)
	}
	if cfg.capBytes < 0 {
		return nil, fmt.Errorf("dataplane: WithByteCap %d: want 0 (unlimited) or a positive cap", cfg.capBytes)
	}
	if cfg.burst < 0 || math.IsNaN(cfg.burst) || math.IsInf(cfg.burst, 0) {
		return nil, fmt.Errorf("dataplane: WithBurst %g: want 0 (the default) or a finite positive depth", cfg.burst)
	}
	// Shard scaling: absolute-capacity knobs were specified against the
	// whole link; each of the N shards gets its 1/N slice. The default burst
	// needs no scaling — it derives from the (already per-shard) rate below.
	scale := max(cfg.scale, 1)
	d := &Dataplane{
		rate:     rate,
		burst:    cfg.burst / scale,
		scale:    scale,
		clock:    cfg.clock,
		capPkts:  cfg.capPkts,
		capBytes: cfg.capBytes,
		pool:     cfg.pool,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if cfg.aqm {
		d.aqm = []codel{} // non-nil: every class runs CoDel
	}
	if d.burst == 0 {
		d.burst = rate * 0.005 // 5 ms of egress per batch
	}
	d.pace.Store(math.Float64bits(rate))
	resolve := hier.Resolver(algorithm, cfg.pol, cfg.nodePols)
	var fecLeaves []*topo.Node
	if cfg.top != nil {
		// Size the class tables once: a class per leaf, plus a repair class
		// per '!fec' clause. Class ids are checked before the build, so an
		// id out of range fails with the engine's error text.
		var n int
		var err error
		n, fecLeaves, err = classBounds(cfg.top)
		if err != nil {
			return nil, err
		}
		tree, err := hier.BuildSpec(cfg.top, rate, algorithm, resolve)
		if err != nil {
			return nil, err
		}
		d.tree, d.slots = tree, tree
		d.reserveClasses(n)
		tree.EachLeaf(func(l hier.Leaf) { d.addClassLocked(l) })
	} else {
		root, err := resolve(&topo.Node{}, rate)
		if err != nil {
			return nil, fmt.Errorf("dataplane: %w", err)
		}
		d.tree = hier.NewFlat(rate, root)
		d.slots = d.tree
	}
	if cfg.metrics {
		d.tree.EnableMetrics()
	}
	if cfg.tracer != nil {
		d.tracer = guardTracer{t: cfg.tracer, d: d}
		d.tree.SetTracer(d.tracer)
	}
	d.initOverload(&cfg)
	d.epoch = d.clock.Now()
	// The topology's '^ceil' clauses were applied at full size.
	if scale > 1 {
		d.tree.ScaleCeils(scale)
	}
	d.rebuildShedOrderLocked()
	if err := d.protectTopoLocked(fecLeaves); err != nil {
		return nil, err
	}
	return d, nil
}

// perShard converts a whole-link absolute value — a rate or a ceiling in
// bits/sec — into this engine's slice of it: each of the N engines behind a
// sharding front (WithShardScale) carries 1/N, so callers keep speaking
// whole-link units and Status rows sum back to them.
func (d *Dataplane) perShard(v float64) float64 { return v / d.scale }

// leafShare converts the share of a leaf grafted into the tree: under a
// flat root a share is the leaf's absolute rate (a whole-link value), under
// a topology node a dimensionless weight.
func (d *Dataplane) leafShare(share float64) float64 {
	if d.tree.Flat() {
		return d.perShard(share)
	}
	return share
}

// validCeil reports whether ceil is a usable ceiling in bits/sec.
func validCeil(ceil float64) bool {
	return ceil > 0 && !math.IsNaN(ceil) && !math.IsInf(ceil, 0)
}

// classBounds checks every leaf's class id and returns the number of
// classes the topology makes — a class per leaf, plus a repair class per
// '!fec' clause — and the leaves with a '!fec' clause, in preorder.
func classBounds(top *topo.Node) (n int, fecLeaves []*topo.Node, err error) {
	top.Walk(func(l *topo.Node, _ int) {
		if err != nil || !l.IsLeaf() {
			return
		}
		if err = checkClassID(l.Session); err != nil {
			return
		}
		n++
		if l.FEC != "" {
			n++
			fecLeaves = append(fecLeaves, l)
		}
	})
	return n, fecLeaves, err
}

// reserveClasses sizes the class tables for n classes, so an engine built
// over a topology allocates each table once.
func (d *Dataplane) reserveClasses(n int) {
	d.classes = make([]classState, 0, n)
	d.settled = make([]departures, 0, n)
	d.out = make([]departures, 0, n)
	if d.aqm != nil {
		d.aqm = make([]codel, 0, n)
	}
}

// addClassLocked sets up the class of the tree's leaf l in the leaf's slot,
// growing the tables when the tree added a slot, with zeroed counts and,
// under WithAQM, fresh CoDel state, and returns its record. A slot's
// record is zero, but for the id -1 of a freed slot, so only the fields a
// class starts with are written. Caller holds d.mu and d.smu, or owns d.
func (d *Dataplane) addClassLocked(l hier.Leaf) *classState {
	id, s := l.Session(), l.Slot()
	if k := int(s) + 1 - len(d.classes); k > 0 {
		d.classes = append(d.classes, make([]classState, k)...)
		d.settled = append(d.settled, make([]departures, k)...)
		d.out = append(d.out, make([]departures, k)...)
		if d.aqm != nil {
			d.aqm = append(d.aqm, make([]codel, k)...)
		}
	}
	cs := &d.classes[s]
	cs.leaf = l
	cs.id, cs.repairOf = int32(id), -1
	// FEC protection belongs to the class id (fecOf): a repair class
	// removed and added again is the engine's again.
	for _, fs := range d.fecList {
		if id == fs.repair {
			cs.repairOf = int32(fs.class)
		}
	}
	d.settled[s], d.out[s] = departures{}, departures{}
	if d.aqm != nil {
		d.aqm[s] = newCodel(codelTarget, codelInterval)
	}
	return cs
}

// classLocked returns class id's admission record and slot, or nil,
// resolving the id through the tree's session table, which changes only
// under both locks. Caller holds d.mu or d.smu.
func (d *Dataplane) classLocked(id int) (*classState, int32) {
	s := d.slots.Slot(id)
	if s < 0 {
		return nil, 0
	}
	return &d.classes[s], s
}

// queuedLocked returns the datagrams and bytes the class in slot s holds —
// accepted and not yet settled. Caller holds d.mu.
func (d *Dataplane) queuedLocked(s int32) (packets, bytes int) {
	cs, st := &d.classes[s], d.settled[s]
	return cs.accepted - st.pkts, cs.acceptedBytes - st.bytes
}

// freeEnvelope releases a datagram that has left the engine: the payload
// buffer goes back to the pool (when the engine owns one) and the envelope
// is recycled. Pump goroutine only.
func (d *Dataplane) freeEnvelope(e *envelope) {
	if d.pool != nil && e.dg.B != nil {
		d.pool.Put(e.dg.B)
	}
	d.recycle(e)
}

// recycle clears an envelope whose buffer the caller has released and
// returns it to the pump's free list — unless hier.Tree still pins it as
// the head it dequeued last, in which case it is recycled at the tree's
// next Dequeue (pop). Pump goroutine only.
func (d *Dataplane) recycle(e *envelope) {
	e.dg = Datagram{}
	if e == d.held {
		d.heldFree = true
		return
	}
	d.putEnvelope(e)
}

// putEnvelope keeps a recycled envelope on the pump's free list, unless
// the list already holds maxFreeEnvelopes: a burst's worth of envelopes
// goes back to the garbage collector rather than staying cached. Stage
// overwrites every field, so nothing is cleared here. Pump goroutine only.
func (d *Dataplane) putEnvelope(e *envelope) {
	if len(d.envFree) < maxFreeEnvelopes {
		d.envFree = append(d.envFree, e)
	}
}

// getEnvelope takes an envelope off the pump's free list, or allocates one.
// Pump goroutine only.
func (d *Dataplane) getEnvelope() *envelope {
	n := len(d.envFree)
	if n == 0 {
		return &envelope{}
	}
	e := d.envFree[n-1]
	d.envFree[n-1] = nil
	d.envFree = d.envFree[:n-1]
	return e
}

// now returns seconds since the engine's creation on its clock — the
// timestamp domain of its metrics and trace events.
func (d *Dataplane) now() float64 {
	return d.clock.Since(d.epoch).Seconds()
}

// schedTime advances the scheduler clock to t if t is later and returns
// it: every time handed to the scheduler goes through here, so its virtual
// time sees a monotone now even when an ingest stamp predates the pump's
// last clock read. Caller holds d.smu.
func (d *Dataplane) schedTime(t float64) float64 {
	if t > d.snow {
		d.snow = t
	}
	return d.snow
}

// lock takes both engine locks in order — admission, then scheduler — as
// every control-plane mutation and full-state read does; unlock releases
// them.
func (d *Dataplane) lock() {
	d.mu.Lock()
	d.smu.Lock()
}

func (d *Dataplane) unlock() {
	d.smu.Unlock()
	d.mu.Unlock()
}

// MaxClassID is the largest class id an engine accepts: a class is a tree
// session, so the bound is hier.MaxSession.
const MaxClassID = hier.MaxSession

// checkClassID refuses a class id the schedulers cannot index.
func checkClassID(id int) error {
	if id < 0 || id > MaxClassID {
		return fmt.Errorf("dataplane: class id %d outside [0, %d]", id, MaxClassID)
	}
	return nil
}

// AddClass registers a class with a whole-link guaranteed rate in bits/sec
// (flat mode only; a topology grafts with AddLeafClass): a leaf grafted under
// the one-level tree's root, where only it changes. The sum of class rates
// should not exceed the engine rate for the WF²Q+ guarantees to hold.
func (d *Dataplane) AddClass(id int, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("dataplane: invalid class rate %g", rate)
	}
	d.lock()
	defer d.unlock()
	if !d.tree.Flat() {
		return fmt.Errorf("dataplane: classes are fixed by the topology")
	}
	return d.addLeafLocked("", "", id, rate, 0)
}

// Classes returns the registered class ids (unordered).
func (d *Dataplane) Classes() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.classes))
	for s := range d.classes {
		if id := d.classes[s].id; id >= 0 {
			out = append(out, int(id))
		}
	}
	return out
}

// PaceRate returns the live token-refill rate in bits/sec. It equals the
// configured rate unless a rate splitter is lending bandwidth between
// shards. Lock-free.
func (d *Dataplane) PaceRate() float64 {
	return math.Float64frombits(d.pace.Load())
}

// SetPaceRate retargets the token-refill rate without touching scheduler
// state: the pump's next batch refills at r bits/sec. Invalid rates
// are ignored. The pump is nudged so a shard parked on a long pacing sleep
// recomputes its wait against the new rate immediately. Lock-free and safe
// from any goroutine; intended for the sharding layer's rate splitter.
func (d *Dataplane) SetPaceRate(r float64) {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return
	}
	d.pace.Store(math.Float64bits(r))
	d.signal()
}

// signal nudges the pump without blocking; a pending nudge is enough.
func (d *Dataplane) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Start launches the supervised pump goroutine writing scheduled datagrams
// to w: each token-bucket release in DefaultBatchSize chunks, each datagram
// with its IngestCtx context.
func (d *Dataplane) Start(w Writer) error {
	if w == nil {
		return fmt.Errorf("dataplane: nil writer")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.started {
		return fmt.Errorf("dataplane: already started")
	}
	d.bw = w
	d.started = true
	go d.supervise()
	if d.overloadEnabled() {
		d.startMonitor()
	}
	return nil
}

// supervise is the pump's crash-only restart loop: it reruns the pump until
// it exits cleanly (closed and drained), recovering panics that escape the
// Writer or a tracer. Each recovery accounts the in-flight batch as dropped
// (reason "pump-panic") and increments the restart counter, so a poisonous
// packet costs its batch, never the link. Restarts are paced: the first is
// immediate, later ones back off exponentially (capped), and a pump that
// survives restartResetAfter earns a fresh budget — a panic loop costs
// bounded CPU instead of a hot loop. With overload control on, exceeding
// the tracker's restart budget inside its window additionally trips the
// circuit breaker to wedged.
func (d *Dataplane) supervise() {
	defer close(d.done)
	backoff := time.Duration(0)
	restarts := 0
	windowStart := d.clock.Now()
	for {
		started := d.clock.Now()
		if d.pumpOnce() {
			return
		}
		now := d.clock.Now()
		if now.Sub(started) >= restartResetAfter {
			backoff, restarts, windowStart = 0, 0, now
		}
		if tr := d.ov.tracker; tr != nil {
			if now.Sub(windowStart) > overload.RestartWindow {
				restarts, windowStart = 0, now
			}
			if restarts++; restarts >= overload.RestartBreaker {
				tr.ForceWedged()
			}
		}
		if backoff > 0 {
			d.sleep(backoff)
		}
		if backoff = backoff * 2; backoff < restartBackoffMin {
			backoff = restartBackoffMin
		} else if backoff > restartBackoffMax {
			backoff = restartBackoffMax
		}
	}
}

// pumpOnce runs the pump until clean exit (true) or a recovered panic
// (false).
func (d *Dataplane) pumpOnce() (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			clean = false
			d.recoverPanic()
		}
	}()
	d.pump()
	return true
}

// recoverPanic accounts the release that was in flight when the pump died:
// every datagram past infHead had no acknowledged disposition, so it is
// recorded as dropped (a panicking WriteBatch may have delivered a prefix
// it never got to report; that prefix is charged to the panic too) and its
// buffer is released. Datagrams the batch took from the inbox but had not
// yet staged go back to the inbox's front, and the batch's departures are
// settled, so the restarted pump resumes with consistent counts. It runs on
// the pump goroutine with the engine unlocked (the locked sections release
// their lock during unwinding).
func (d *Dataplane) recoverPanic() {
	defer func() { recover() }() // a re-panicking tracer must not kill the supervisor
	d.lock()
	defer d.unlock()
	d.restarts++
	if rest := d.staging[d.stageHead:]; len(rest) > 0 {
		d.inbox = append(append([]inboxRecord(nil), rest...), d.inbox...)
	}
	clear(d.staging)
	d.staging, d.stageHead = d.staging[:0], 0
	d.settleLocked()
	now := d.schedTime(d.now())
	for _, env := range d.inflight[d.infHead:] {
		d.tree.RecordDropReason(now, env.pkt.Session, env.pkt.Length, obs.DropPanic)
		d.freeEnvelope(env)
	}
	d.inflight = d.inflight[:0]
	d.infHead = 0
	d.ov.inflight.Store(0)
}

// guardTracer wraps the configured tracer. The scheduler fires its Enqueue
// and Dequeue hooks midway through its own Enqueue and Dequeue, after it
// has committed the packet: a panic escaping there would lose a packet the
// engine still counts, and Close would wait for it forever. Those two hooks
// therefore park their panic in tracePanic, and the pump re-raises it
// (raiseTrace) at the end of the chunk, once every packet the chunk moved
// is accounted; the supervisor then charges the chunk's release to the
// panic like any in-flight batch. Drop and retry events fire from
// the engine's own accounting and let a panic through.
type guardTracer struct {
	t obs.Tracer
	d *Dataplane
}

func (g guardTracer) Enqueue(ev obs.Event) { defer g.park(); g.t.Enqueue(ev) }
func (g guardTracer) Dequeue(ev obs.Event) { defer g.park(); g.t.Dequeue(ev) }
func (g guardTracer) Drop(ev obs.Event)    { g.t.Drop(ev) }

// Retry forwards retry events when the wrapped tracer accepts them.
func (g guardTracer) Retry(ev obs.Event) {
	if rt, ok := g.t.(obs.RetryTracer); ok {
		rt.Retry(ev)
	}
}

// park keeps the first panic of a hook (caller holds d.smu).
func (g guardTracer) park() {
	if r := recover(); r != nil && g.d.tracePanic == nil {
		g.d.tracePanic = r
	}
}

// raiseTrace re-raises a parked tracer panic at the end of a staging or
// dequeue chunk, once every packet the chunk moved is accounted. Caller
// holds d.smu.
func (d *Dataplane) raiseTrace() {
	if r := d.tracePanic; r != nil {
		d.tracePanic = nil
		panic(r)
	}
}

// pump is the single scheduler-drain loop and the only goroutine that
// moves datagrams through the scheduler: per batch it takes the inbox,
// stages and dequeues under the scheduler lock a chunk at a time, paces
// with a token bucket between batches, and retries the write side's
// unwritten suffix with backoff. It returns when the engine is closed and
// drained; panics unwind to the supervisor.
func (d *Dataplane) pump() {
	var tokens float64
	last := d.clock.Since(d.epoch)
	for {
		var backlog int
		var closed, draining bool
		tokens, backlog, closed, draining = d.collectBatch(tokens, &last)

		wrote := len(d.inflight) > 0
		d.writeInflight()
		if wrote {
			continue // the scheduler may have more immediately releasable work
		}
		switch {
		case closed && backlog == 0:
			return
		case backlog > 0 || d.fecWait > 0 || draining && tokens < 0:
			// Out of tokens, the backlog held back by ceilings, a partial
			// FEC block aging toward its flush deadline (its repairs are
			// work no Ingest will announce), or a draining class whose
			// last datagram the tree pins until its next Dequeue, which
			// only a batch with tokens makes: sleep until the link bucket
			// covers the deficit (or, when tokens are flush, until the
			// scheduler's next release, at most maxHoldWait), and no later
			// than the flush deadline. A datagram accepted meanwhile
			// nudges the pump awake.
			wait := time.Duration(-tokens / d.PaceRate() * float64(time.Second))
			if tokens >= 0 && d.holdWait > 0 {
				wait = min(d.holdWait, maxHoldWait)
			}
			if d.fecWait > 0 && (backlog == 0 || d.fecWait < wait) {
				wait = d.fecWait
			}
			if wait < minWait {
				wait = minWait
			}
			d.await(wait)
		default:
			d.beat() // park with a fresh heartbeat: idle is healthy
			d.parked.Store(math.MaxInt64)
			<-d.wake // idle: wait for an Ingest or Close nudge
			d.parked.Store(0)
			d.beat()
		}
	}
}

// collectBatch runs one pump batch up to the write: it refills the token
// bucket (the batch's one clock read also stamps the heartbeat), takes the
// inbox, stages it, dequeues every packet the tokens cover in scheduler
// order into d.inflight (applying CoDel: shed packets are dropped here and
// consume no tokens), and settles the per-class counts. It returns the
// tokens left, the engine's backlog, whether it is closed, and whether a
// class waits to finish draining.
func (d *Dataplane) collectBatch(tokens float64, last *time.Duration) (float64, int, bool, bool) {
	d.inflight = d.inflight[:0] // the previous release was fully disposed of
	d.infHead = 0
	d.holdWait = 0
	wall := d.clock.Since(d.epoch)
	d.beatAt(wall)
	tokens += (wall - *last).Seconds() * d.PaceRate()
	*last = wall
	if tokens > d.burst {
		tokens = d.burst
	}
	now := wall.Seconds()
	if brownout, closing := d.takeInbox(); len(d.fecList) > 0 {
		d.encodeFEC(now, brownout, closing)
	}
	for d.stageHead < len(d.staging) {
		d.stageChunk()
	}
	clear(d.staging)
	d.staging, d.stageHead = d.staging[:0], 0
	for more := d.dequeueChunk(&tokens, now); more && tokens >= 0; {
		more = d.dequeueChunk(&tokens, d.now())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.settleLocked()
	d.finalizeDraining()
	d.ov.inflight.Store(int64(len(d.inflight)))
	return tokens, d.backlogLocked(), d.closed, len(d.draining) > 0
}

// takeInbox swaps the inbox for the pump's empty staging buffer and
// reports, for the FEC stage, whether brownout is on and Close was called.
func (d *Dataplane) takeInbox() (brownout, closing bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.staging, d.inbox = d.inbox, d.staging
	return d.ov.brownout, d.closed
}

// stageChunk hands up to one DefaultBatchSize chunk of the taken inbox to the
// scheduler, in arrival order, under one scheduler-lock hold: each record
// fills an envelope, which enters the scheduler at its ingest time, clamped
// to the scheduler clock, straight into the leaf its class resolved at
// creation.
func (d *Dataplane) stageChunk() {
	d.smu.Lock()
	defer d.smu.Unlock()
	defer d.raiseTrace()
	end := min(d.stageHead+DefaultBatchSize, len(d.staging))
	for d.stageHead < end {
		r := &d.staging[d.stageHead]
		d.stageHead++
		env := d.getEnvelope()
		env.pkt = packet.Packet{
			Session: r.leaf.Session(),
			Length:  float64(len(r.b)) * 8,
			Arrival: r.arrival, // sojourn basis for the AQM
			Payload: env,
		}
		env.dg = Datagram{B: r.b, Ctx: r.ctx}
		env.slot = r.slot
		d.tree.EnqueueLeaf(d.schedTime(r.arrival), r.leaf, &env.pkt)
	}
}

// dequeueChunk dequeues up to one DefaultBatchSize chunk while tokens last,
// under one scheduler-lock hold at one clock reading. It reports false once
// the scheduler has nothing to release, noting in holdWait when it will
// release a class its ceiling holds back.
func (d *Dataplane) dequeueChunk(tokens *float64, now float64) bool {
	d.smu.Lock()
	defer d.smu.Unlock()
	defer d.raiseTrace()
	now = d.schedTime(now)
	for n := 0; n < DefaultBatchSize && *tokens >= 0; n++ {
		env := d.pop(now)
		if env == nil {
			if at, ok := d.tree.NextRelease(); ok {
				d.holdWait = time.Duration(math.Ceil((at - now) * float64(time.Second)))
			}
			return false
		}
		p, s := &env.pkt, env.slot
		out := &d.out[s]
		if out.pkts == 0 {
			d.settling = append(d.settling, s)
		}
		out.pkts++
		out.bytes += len(env.dg.B)
		if d.aqm != nil && d.aqm[s].onDequeue(now, now-p.Arrival) {
			// Shed by CoDel: record and pick the next packet without
			// spending link tokens on the carcass.
			d.tree.RecordDropReason(now, p.Session, p.Length, obs.DropCoDel)
			d.freeEnvelope(env)
			continue
		}
		*tokens -= p.Length
		d.inflight = append(d.inflight, env)
	}
	return true
}

// pop dequeues the scheduler's next packet's envelope, or nil. hier.Tree
// pins the packet it returns until its next Dequeue, so the envelope popped
// before this call becomes recyclable only now. Caller holds d.smu.
func (d *Dataplane) pop(now float64) *envelope {
	p := d.tree.Dequeue(now)
	if d.heldFree {
		d.putEnvelope(d.held)
	}
	d.held, d.heldFree = nil, false
	if p == nil {
		return nil
	}
	d.held = p.Payload.(*envelope)
	return d.held
}

// settleLocked folds the batch's departures into the classes' settled
// counts and the engine's, so the datagrams leave the classes' queued
// counts and the backlog. Caller holds d.mu.
func (d *Dataplane) settleLocked() {
	for _, s := range d.settling {
		out, st := &d.out[s], &d.settled[s]
		st.pkts += out.pkts
		st.bytes += out.bytes
		d.settledAll += out.pkts
		*out = departures{}
	}
	d.settling = d.settling[:0]
}

// writeInflight delivers the collected release to the writer in
// DefaultBatchSize chunks, advancing infHead as datagrams reach their final
// disposition (written or dropped).
func (d *Dataplane) writeInflight() {
	for d.infHead < len(d.inflight) {
		chunk := d.inflight[d.infHead:]
		if len(chunk) > DefaultBatchSize {
			chunk = chunk[:DefaultBatchSize]
		}
		d.writeChunk(chunk)
	}
	d.inflight = d.inflight[:0]
	d.infHead = 0
	d.ov.inflight.Store(0)
}

// writeChunk drives one WriteBatch chunk to completion. Retry and backoff
// operate on the unwritten suffix: the writer reports how many datagrams it
// delivered, the error applies to the first unwritten one, and the whole
// suffix is re-offered. Transient errors back off with capped doubling, the
// attempt counter and backoff resetting whenever the head advances; a fatal
// error drops the head (reason "write-error"), and so does a transient one
// past the retry budget (reason "retry-exhausted"). Every retry and outcome
// is recorded.
func (d *Dataplane) writeChunk(chunk []*envelope) {
	pkts := d.scratch[:0]
	for _, env := range chunk {
		pkts = append(pkts, env.dg)
	}
	d.scratch = pkts[:0]
	backoff := DefaultRetryBackoff
	attempts := 0
	for len(pkts) > 0 {
		n, err := d.bw.WriteBatch(pkts)
		if n < 0 {
			n = 0
		} else if n > len(pkts) {
			n = len(pkts)
		}
		if n > 0 {
			d.finishWritten(chunk[:n])
			chunk = chunk[n:]
			pkts = pkts[n:]
			attempts, backoff = 0, DefaultRetryBackoff
		}
		if err == nil {
			if len(pkts) == 0 {
				return
			}
			err = errShortBatch // short batch without an error: transient stall
		}
		head := &chunk[0].pkt
		transient := isTransient(err)
		if transient && attempts < DefaultRetryLimit {
			attempts++
			d.ov.retries.Add(1)
			d.record(head.Session, head.Length, obs.RetryTransient, true)
			d.sleep(backoff)
			backoff = min(2*backoff, DefaultRetryCap)
			continue
		}
		reason := obs.DropWrite
		if transient {
			reason = obs.DropRetries
		}
		d.record(head.Session, head.Length, reason, false)
		d.freeEnvelope(chunk[0])
		chunk = chunk[1:]
		pkts = pkts[1:]
		d.infHead++
		attempts, backoff = 0, DefaultRetryBackoff
	}
}

// finishWritten accounts one delivered prefix — a single batch-write record
// plus one pool call returning every datagram's buffer — and advances
// infHead past it.
func (d *Dataplane) finishWritten(written []*envelope) {
	var bits float64
	for _, env := range written {
		bits += env.pkt.Length
	}
	d.ov.writes.Add(int64(len(written)))
	d.smu.Lock()
	d.tree.RecordBatchWrite(d.snow, len(written), bits)
	d.smu.Unlock()
	if tr := d.ov.tracker; tr != nil {
		tr.NoteProgress() // delivery releases a tripped watchdog breaker
	}
	bufs := d.bufs[:0]
	for _, env := range written {
		bufs = append(bufs, env.dg.B)
		d.recycle(env)
	}
	if d.pool != nil {
		d.pool.PutBatch(bufs)
	}
	clear(bufs)
	d.bufs = bufs[:0]
	d.infHead += len(written)
}

// record accounts a write-side drop, or a retry, of an in-flight datagram
// under the scheduler lock (released even if a tracer panics).
func (d *Dataplane) record(class int, bits float64, reason string, retry bool) {
	now := d.now()
	d.smu.Lock()
	defer d.smu.Unlock()
	if retry {
		d.tree.RecordRetry(d.schedTime(now), class, bits, reason)
	} else {
		d.tree.RecordDropReason(d.schedTime(now), class, bits, reason)
	}
}

// sleep blocks for dur on the engine's clock (fake-clock testable,
// uninterruptible: retry backoff keeps running during Close so the drain
// still delivers).
func (d *Dataplane) sleep(dur time.Duration) { d.park(dur, nil) }

// await blocks until dur elapses on the engine's clock or a wake nudge
// arrives (new work or shutdown).
func (d *Dataplane) await(dur time.Duration) { d.park(dur, d.wake) }

// park blocks until dur elapses on the engine's clock or wake delivers (a
// nil wake never does), publishing the park in parked and fired.
func (d *Dataplane) park(dur time.Duration, wake <-chan struct{}) {
	d.parks += 2
	mark := d.parks
	if wake != nil {
		mark++
	}
	t := make(chan struct{})
	d.clock.AfterFunc(dur, func() {
		d.fired.Store(mark)
		close(t)
	})
	d.parked.Store(mark)
	select {
	case <-t:
	case <-wake:
	}
	d.parked.Store(0)
}

// Settled reports whether the engine waits for its clock: the pump has not
// started, has exited, or is parked — idle, or on a timer that has not
// fired, with no datagram or nudge waiting when one could end the park, or
// in retry or restart backoff — and the overload monitor, if it runs, waits
// for its next sample. A test stepping a fake clock settles the engine
// before each step, so the step reaches the pump and the monitor exactly
// when their timers say, however slowly the host schedules them. An Ingest
// racing the check can unsettle the engine right after it. It is a function
// rather than a method so that it stays off hpfq.Dataplane, which aliases
// Dataplane.
func Settled(d *Dataplane) bool { return d.pumpSettled() && d.monitorSettled() }

// pumpSettled is Settled's verdict on the pump.
func (d *Dataplane) pumpSettled() bool {
	select {
	case <-d.done:
		return true
	default:
	}
	d.mu.Lock()
	started, inbox := d.started, len(d.inbox)
	d.mu.Unlock()
	if !started {
		return true
	}
	switch p := d.parked.Load(); {
	case p == 0 || p == d.fired.Load():
		return false // running, or about to
	case p%2 == 0:
		return true // backoff: nudges wait for it
	default:
		return inbox == 0 && len(d.wake) == 0
	}
}

// Backlog returns the number of datagrams the engine holds for its
// classes — accepted and not yet dequeued: waiting in the inbox or queued
// in the scheduler (held back by a ceiling included).
func (d *Dataplane) Backlog() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.backlogLocked()
}

// backlogLocked is Backlog; caller holds d.mu.
func (d *Dataplane) backlogLocked() int { return d.accepted - d.settledAll }

// Snapshot freezes the scheduler's counters — per-class counts, queue
// depths, delays, WFI, and the per-reason drop breakdown. Safe to call
// concurrently with Ingest and the pump. Datagrams still in the inbox are
// not yet enqueued in these counters; Backlog and Status().Classes count
// them.
func (d *Dataplane) Snapshot() obs.Metrics {
	d.smu.Lock()
	defer d.smu.Unlock()
	return d.tree.Snapshot()
}

// NodeSnapshots returns the per-node reference-time metrics when the engine
// schedules over a topology, nil in flat mode.
func (d *Dataplane) NodeSnapshots() map[string]obs.Metrics {
	d.smu.Lock()
	defer d.smu.Unlock()
	if d.tree.Flat() {
		return nil
	}
	return d.tree.NodeSnapshots()
}

// Close stops intake, drains the staged backlog through the pacer, and
// waits for the pump to exit. Datagrams arriving after Close are dropped
// (recorded with reason "closed"). If Start was never called the staged
// backlog is discarded. The Writer must not block forever, or Close won't
// return.
func (d *Dataplane) Close() error {
	d.mu.Lock()
	d.closed = true
	started := d.started
	d.mu.Unlock()
	if !started {
		return nil
	}
	d.signal()
	<-d.done
	d.stopMonitor()
	return nil
}
