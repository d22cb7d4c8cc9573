package hpfq

import (
	"io"
	"time"

	"hpfq/internal/ctl"
	"hpfq/internal/dataplane"
	"hpfq/internal/des"
	"hpfq/internal/errs"
	"hpfq/internal/fec"
	"hpfq/internal/fluid"
	"hpfq/internal/hier"
	"hpfq/internal/netsim"
	"hpfq/internal/obs"
	"hpfq/internal/overload"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
	"hpfq/internal/sched"
	"hpfq/internal/shard"
	"hpfq/internal/tcp"
	"hpfq/internal/topo"
	"hpfq/internal/traffic"
)

// Algorithm names a scheduling discipline accepted by New, NewNode and
// NewHierarchy. The constants below cover the registry; untyped string
// literals convert implicitly, so Algorithm("WF2Q+") also works.
type Algorithm string

// Registered algorithms.
const (
	WF2QPlus Algorithm = "WF2Q+" // the paper's contribution (§3.4)
	WFQ      Algorithm = "WFQ"   // weighted fair queueing / PGPS
	WF2Q     Algorithm = "WF2Q"  // worst-case fair WFQ (exact GPS clock)
	SCFQ     Algorithm = "SCFQ"  // self-clocked fair queueing
	SFQ      Algorithm = "SFQ"   // start-time fair queueing
	DRR      Algorithm = "DRR"   // deficit round robin
	FIFO     Algorithm = "FIFO"  // first in, first out: no isolation
	SP       Algorithm = "SP"    // strict priority by flow id (PIFO substrate)
	EDF      Algorithm = "EDF"   // earliest deadline first (PIFO substrate)
	SRPT     Algorithm = "SRPT"  // shortest remaining processing time (PIFO substrate)
	LSTF     Algorithm = "LSTF"  // least slack time first (PIFO substrate)
)

// Sentinel errors, matchable with errors.Is on anything returned by New,
// NewNode, NewHierarchy, NewHGPS and NewDataplane.
var (
	// ErrUnknownAlgorithm reports an algorithm name missing from the
	// registry.
	ErrUnknownAlgorithm = errs.ErrUnknownAlgorithm
	// ErrBadTopology reports a malformed link-sharing tree.
	ErrBadTopology = errs.ErrBadTopology
	// ErrNoNodeForm reports a caller-built Policy with no node constructor:
	// NewNode, NewHierarchy and NewDataplane refuse it.
	ErrNoNodeForm = errs.ErrNoNodeForm
	// ErrNoFlatForm reports a caller-built Policy with no flat constructor:
	// New refuses it.
	ErrNoFlatForm = errs.ErrNoFlatForm
)

// Data-plane sentinel errors, matchable with errors.Is on anything returned
// by Dataplane.Ingest, Start and AddClass.
var (
	// ErrDataplaneClosed reports an Ingest or Start after Close.
	ErrDataplaneClosed = dataplane.ErrClosed
	// ErrNoClass reports an Ingest for an unregistered class id.
	ErrNoClass = dataplane.ErrNoClass
	// ErrClassQueueFull reports an arrival beyond a class's queue or byte
	// cap; the datagram was dropped and the drop recorded.
	ErrClassQueueFull = dataplane.ErrQueueFull
	// ErrClassDraining reports an Ingest for a class RemoveClass is
	// retiring: the staged remainder still leaves in scheduled order, new
	// arrivals are refused.
	ErrClassDraining = dataplane.ErrClassDraining
)

// Bits8KB is the paper's 8 KB packet size in bits.
const Bits8KB = packet.Bits8KB

// Packet is the unit of service; see internal/packet.
type Packet = packet.Packet

// NewPacket returns a packet for a session with a length in bits.
func NewPacket(session int, lengthBits float64) *Packet {
	return packet.New(session, lengthBits)
}

// Scheduler is a standalone packet fair queueing server. Every scheduler
// carries the observability surface: EnableMetrics, SetTracer, Snapshot.
type Scheduler = sched.Scheduler

// NodeScheduler is a PFQ server node usable inside a hierarchy.
type NodeScheduler = sched.NodeScheduler

// Observability re-exports; see internal/obs.
type (
	// Metrics is a point-in-time snapshot of one server's counters.
	Metrics = obs.Metrics
	// SessionMetrics is the per-session slice of a Metrics snapshot.
	SessionMetrics = obs.SessionMetrics
	// DelayStats summarizes observed queueing delays.
	DelayStats = obs.DelayStats
	// SimMetrics are the DES kernel counters.
	SimMetrics = obs.SimMetrics
	// Tracer receives per-packet events from instrumented servers.
	Tracer = obs.Tracer
	// TraceEvent is one enqueue/dequeue/drop record, with virtual-time
	// fields on dequeues from virtual-clock schedulers.
	TraceEvent = obs.Event
	// RingTracer keeps the last N events in memory.
	RingTracer = obs.RingTracer
	// JSONLTracer streams events as JSON lines.
	JSONLTracer = obs.JSONLTracer
)

// Trace event types.
const (
	EventEnqueue = obs.EventEnqueue
	EventDequeue = obs.EventDequeue
	EventDrop    = obs.EventDrop
	EventRetry   = obs.EventRetry
)

// Drop reasons, as recorded in Metrics.DropReasons and on EventDrop trace
// events. The first three are ingest-time policy; the rest happen after
// dequeue, on the data-plane's egress side.
const (
	// DropTail is a tail-drop at a class's packet cap.
	DropTail = obs.DropTail
	// DropBytes is a drop at a class's byte cap.
	DropBytes = obs.DropBytes
	// DropClosed is an arrival after Close.
	DropClosed = obs.DropClosed
	// DropWrite is a fatal (non-retryable) Writer error.
	DropWrite = obs.DropWrite
	// DropRetries is a transient Writer error that outlived its retry
	// budget.
	DropRetries = obs.DropRetries
	// DropCoDel is a packet shed by the WithAQM CoDel policy.
	DropCoDel = obs.DropCoDel
	// DropPanic is a packet lost in flight when the pump recovered a panic.
	DropPanic = obs.DropPanic
	// DropShed is a datagram refused by the overload controller (pressure
	// shedding, or the gateway's brownout refusal of a new flow). The cause
	// breakdown lands in Metrics.ShedReasons.
	DropShed = obs.DropShed
)

// Shed causes, as recorded in Metrics.ShedReasons under DropShed drops.
const (
	// ShedPressure is a class refused by pressure-driven load shedding.
	ShedPressure = obs.ShedPressure
	// ShedBrownout is a datagram refused by the gateway's brownout gate.
	ShedBrownout = obs.ShedBrownout
)

// Retry reasons, as recorded in Metrics.RetryReasons and on EventRetry trace
// events.
const (
	// RetryTransient is a re-attempt after a transient Writer error.
	RetryTransient = obs.RetryTransient
)

// NewRingTracer returns a tracer retaining the most recent capacity events.
func NewRingTracer(capacity int) *RingTracer { return obs.NewRingTracer(capacity) }

// NewJSONLTracer returns a tracer writing one JSON object per event to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// NamedTracer stamps every event passed to t with the given node name —
// useful to multiplex several servers into one stream.
func NamedTracer(node string, t Tracer) Tracer { return obs.Named(node, t) }

// Policy is a first-class scheduling policy on the PIFO substrate
// (internal/pifo): a named pair of flat/node constructors for the rank
// function, eligibility predicate, and per-flow virtual-time state that
// express a discipline. Every registered Algorithm is a Policy underneath;
// PolicyByName retrieves one, and the *Policy helpers below parameterize
// the deadline/priority families.
// Select a policy with WithPolicy (everywhere) or WithNodePolicy (per
// hierarchy node).
type Policy = pifo.Factory

// PolicyHooks is the per-flow state interface a custom Policy implements:
// AddFlow, Arrive (stamp a packet with rank/eligibility/virtual times),
// Commit (account a packet entering service), and V (the policy's virtual
// clock). See internal/pifo for the optional Ticker/Floorer/Deferrer
// extensions.
type PolicyHooks = pifo.Policy

// Stamp is one PIFO scheduling decision: the rank ordering service, the
// eligibility key gating it, and the virtual start/finish pair for traces.
type Stamp = pifo.Stamp

// PolicyByName returns the registered policy factory for an algorithm
// name; ok is false for a name missing from Algorithms.
func PolicyByName(algorithm Algorithm) (Policy, bool) {
	return pifo.Lookup(string(algorithm))
}

// StrictPriorityPolicy returns strict priority with a custom priority
// function (smaller = served first); the registry's "SP" prioritizes by
// flow id.
func StrictPriorityPolicy(prio func(id int, rate float64) float64) Policy {
	return pifo.StrictPriorityWith(prio)
}

// EDFPolicy returns earliest-deadline-first with a custom relative-deadline
// function; the registry's "EDF" uses one transmission time at the flow's
// guaranteed rate (L/r_i).
func EDFPolicy(rel func(id int, rate, length float64) float64) Policy {
	return pifo.EDFWith(rel)
}

// LSTFPolicy returns least-slack-time-first with a custom slack function;
// the registry's "LSTF" uses L/r_i.
func LSTFPolicy(slack func(id int, rate, length float64) float64) Policy {
	return pifo.LSTFWith(slack)
}

// Option configures a scheduler, node, hierarchy — or, because Option also
// satisfies DataplaneOption, a data-plane — at construction.
type Option struct {
	metrics  bool
	tracer   Tracer
	hasTrace bool
	policy   *Policy
	nodePols []nodePolicy
}

type nodePolicy struct {
	name string
	pol  Policy
}

// WithMetrics enables metric collection (counts, queue depths, delays, WFI)
// from the first packet.
func WithMetrics() Option { return Option{metrics: true} }

// WithTracer streams per-packet events to t. On a hierarchy the tracer also
// receives every interior node's events, stamped with the node's topology
// name. On a data-plane the tracer runs under the engine's lock and must not
// call back into it.
func WithTracer(t Tracer) Option { return Option{tracer: t, hasTrace: true} }

// WithPolicy selects an explicit scheduling policy, overriding the
// algorithm argument of New, NewNode, NewHierarchy or NewDataplane. On a
// hierarchy or topology-mode data-plane it becomes the default discipline
// of every interior node, overridden per node by WithNodePolicy and by
// ':policy' clauses in parsed topo specs.
func WithPolicy(p Policy) Option { return Option{policy: &p} }

// WithNodePolicy pins the policy of the named interior node of a hierarchy
// (NewHierarchy, or NewDataplane with WithTopology). Repeat for different
// nodes; the most specific selection wins (WithNodePolicy, then the
// topology's ':policy' annotations, then WithPolicy, then the algorithm).
// New and NewNode ignore it.
func WithNodePolicy(nodeName string, p Policy) Option {
	return Option{nodePols: []nodePolicy{{name: nodeName, pol: p}}}
}

func applyOptions(o obs.Observable, opts []Option) {
	for _, opt := range opts {
		if opt.metrics {
			o.EnableMetrics()
		}
		if opt.hasTrace {
			o.SetTracer(opt.tracer)
		}
	}
}

// lastPolicy returns the last WithPolicy selection, or nil.
func lastPolicy(opts []Option) *Policy {
	var p *Policy
	for _, opt := range opts {
		if opt.policy != nil {
			p = opt.policy
		}
	}
	return p
}

// dataplaneOptions translates the Option into the engine's option set; this
// is how one WithPolicy/WithMetrics/WithTracer value works for both the
// simulation constructors and NewDataplane.
func (o Option) dataplaneOptions() []dataplane.Option {
	var out []dataplane.Option
	if o.metrics {
		out = append(out, dataplane.WithMetrics())
	}
	if o.hasTrace {
		out = append(out, dataplane.WithTracer(o.tracer))
	}
	if o.policy != nil {
		out = append(out, dataplane.WithPolicy(*o.policy))
	}
	for _, np := range o.nodePols {
		out = append(out, dataplane.WithNodePolicy(np.name, np.pol))
	}
	return out
}

// Algorithms lists the registered algorithms, sorted by name.
func Algorithms() []Algorithm {
	names := sched.Algorithms()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// New returns a standalone scheduler for a link of the given rate in
// bits/sec:
//
//	s, err := hpfq.New(hpfq.WF2QPlus, 10e6, hpfq.WithMetrics())
//
// WithPolicy substitutes an explicit policy for the algorithm name. Unknown
// algorithms return an error matching ErrUnknownAlgorithm.
func New(algorithm Algorithm, rate float64, opts ...Option) (Scheduler, error) {
	var (
		s   Scheduler
		err error
	)
	if p := lastPolicy(opts); p != nil {
		s, err = sched.NewPolicy(*p, rate)
	} else {
		s, err = sched.New(string(algorithm), rate)
	}
	if err != nil {
		return nil, err
	}
	applyOptions(s, opts)
	return s, nil
}

// NewNode returns a hierarchical server node with guaranteed rate in
// bits/sec. WithPolicy substitutes an explicit policy for the algorithm
// name.
func NewNode(algorithm Algorithm, rate float64, opts ...Option) (NodeScheduler, error) {
	var (
		n   NodeScheduler
		err error
	)
	if p := lastPolicy(opts); p != nil {
		n, err = sched.NewPolicyNode(*p, rate)
	} else {
		n, err = sched.NewNode(string(algorithm), rate)
	}
	if err != nil {
		return nil, err
	}
	applyOptions(n, opts)
	return n, nil
}

// Topology building: a link-sharing tree of service shares.
type Topology = topo.Node

// Leaf returns a session leaf with a share relative to its siblings.
func Leaf(name string, share float64, session int) *Topology {
	return topo.Leaf(name, share, session)
}

// Interior returns a link-sharing class node.
func Interior(name string, share float64, children ...*Topology) *Topology {
	return topo.Interior(name, share, children...)
}

// ParseTopology parses a link-sharing tree spec:
//
//	node := name '=' share ['^' ceil] (':' session [':' policy] | [':' policy] '(' node {',' node} ')')
//
// e.g. "root=1(video=3(hd=2:0,sd=1:1),bulk=1:2)", or with per-node
// policies "root=1:WF2Q+(video=3:SP(hd=2:0,sd=1:1),bulk=1:2)". Shares are
// relative to siblings; the optional policy clause names the scheduling
// discipline of that node's server. The optional '^ceil' clause caps the
// node at an absolute rate in bits/sec ("bulk=1^5e6:2") on a data-plane or
// hierarchy built from the spec; without it a node borrows whatever its
// siblings leave idle, as H-PFQ is work-conserving. The cmd/hpfqgw and
// cmd/hpfqsim -topo flags speak exactly this grammar.
func ParseTopology(spec string) (*Topology, error) { return topo.Parse(spec) }

// Hierarchy is an H-PFQ server (the paper's §4 construction).
type Hierarchy = hier.Tree

// NewHierarchy builds an H-PFQ server over the topology using the named
// one-level algorithm at every interior node — H-WF²Q+ is
//
//	tree, err := hpfq.NewHierarchy(top, 45e6, hpfq.WF2QPlus)
//
// WithMetrics and WithTracer cover the whole tree (per-session delays and
// WFI at the root collector, reference-time counters at every interior
// node; see Hierarchy.NodeSnapshots). Per-node disciplines resolve most
// specific first: WithNodePolicy by node name, then ':policy' annotations
// in the topology, then WithPolicy, then the algorithm argument. Malformed
// topologies return an error matching ErrBadTopology.
func NewHierarchy(top *Topology, linkRate float64, algorithm Algorithm, opts ...Option) (*Hierarchy, error) {
	perNode := make(map[string]Policy)
	for _, opt := range opts {
		for _, np := range opt.nodePols {
			perNode[np.name] = np.pol
		}
	}
	tree, err := hier.BuildSpec(top, linkRate, string(algorithm),
		hier.Resolver(string(algorithm), lastPolicy(opts), perNode))
	if err != nil {
		return nil, err
	}
	applyOptions(tree, opts)
	return tree, nil
}

// Simulation substrate.
type (
	// Sim is the discrete-event simulation kernel; Sim.Metrics reports its
	// event counters as a SimMetrics.
	Sim = des.Sim
	// Event is a scheduled simulator callback.
	Event = des.Event
	// Link is a fixed-rate output port draining a scheduler; its embedded
	// collector measures full per-packet sojourns and buffer-limit drops.
	Link = netsim.Link
	// Queue is the server contract shared by flat schedulers and
	// hierarchies.
	Queue = netsim.Queue
)

// NewSim returns a simulator with the clock at zero.
func NewSim() *Sim { return des.New() }

// NewLink returns a link of the given rate in bits/sec draining q.
func NewLink(sim *Sim, rate float64, q Queue) *Link { return netsim.NewLink(sim, rate, q) }

// Fluid reference systems.
type (
	// GPS is the one-level fluid server of §2.1.
	GPS = fluid.GPS
	// HGPS is the hierarchical fluid server of §2.2.
	HGPS = fluid.HGPS
	// GPSClock is the exact GPS virtual time function (eq. 4–5).
	GPSClock = fluid.Clock
)

// NewGPS returns a GPS fluid server of the given rate.
func NewGPS(rate float64) *GPS { return fluid.NewGPS(rate) }

// NewHGPS returns an H-GPS fluid server over a topology.
func NewHGPS(top *Topology, rate float64) (*HGPS, error) { return fluid.NewHGPS(top, rate) }

// NewGPSClock returns an exact GPS virtual clock.
func NewGPSClock(rate float64) *GPSClock { return fluid.NewClock(rate) }

// IdealShares computes the instantaneous H-GPS bandwidth of every active
// session (eq. 8–9); see Fig. 9(b).
func IdealShares(top *Topology, linkRate float64, active map[int]bool) map[int]float64 {
	return fluid.IdealShares(top, linkRate, active)
}

// Traffic sources.
type (
	// CBR is a constant bit rate source.
	CBR = traffic.CBR
	// OnOff is a deterministic on/off source.
	OnOff = traffic.OnOff
	// Poisson is a Poisson packet source.
	Poisson = traffic.Poisson
	// Train emits periodic back-to-back packet trains.
	Train = traffic.Train
	// Greedy keeps a session continuously backlogged.
	Greedy = traffic.Greedy
	// Scheduled is a CBR source active during listed intervals.
	Scheduled = traffic.Scheduled
	// Interval is a half-open active period for Scheduled sources.
	Interval = traffic.Interval
	// LeakyBucket is a (σ, ρ) regulator.
	LeakyBucket = traffic.LeakyBucket
	// Emit delivers generated packets to the system under test.
	Emit = traffic.Emit
)

// ToLink returns an Emit that submits packets to a link.
func ToLink(l *Link) Emit { return traffic.ToLink(l) }

// NewLeakyBucket returns a (σ, ρ) regulator releasing into out.
func NewLeakyBucket(sim *Sim, sigma, rho float64, out Emit) *LeakyBucket {
	return traffic.NewLeakyBucket(sim, sigma, rho, out)
}

// TCPSource is a compact TCP Reno sender/receiver pair (§5.2 workloads).
type TCPSource = tcp.Source

// NewTCPSource returns a TCP source for a session over a bottleneck link,
// with fixed non-bottleneck RTT component delay, starting at start.
func NewTCPSource(sim *Sim, link *Link, session int, segBits, delay, start float64) *TCPSource {
	return tcp.New(sim, link, session, segBits, delay, start)
}

// Dataplane is a concurrent UDP egress engine: datagrams in from any number
// of goroutines, WF²Q+-ordered and rate-paced datagrams out through a single
// batching pump. See internal/dataplane and cmd/hpfqgw.
type Dataplane = dataplane.Dataplane

// DataplaneOption configures a Dataplane at construction. The simulation
// Option type satisfies it too, so WithMetrics, WithTracer, WithPolicy and
// WithNodePolicy work unchanged in NewDataplane.
type DataplaneOption interface {
	dataplaneOptions() []dataplane.Option
}

// dpOptions is the concrete DataplaneOption behind the With* wrappers.
type dpOptions []dataplane.Option

func (d dpOptions) dataplaneOptions() []dataplane.Option { return d }

// Datagram I/O. The engine has one way in and one way out: callers read
// their own sockets and call Ingest, and the pump hands each token-bucket
// release to the PacketWriter given to Start, in DefaultBatchSize chunks.
type (
	// PacketWriter is the egress contract: WriteBatch delivers datagrams
	// in order and returns how many it wrote; a non-nil error applies to
	// the first unwritten one, and the engine re-offers the suffix.
	PacketWriter = dataplane.Writer
	// PacketDatagram is one scheduled payload handed to a PacketWriter:
	// raw bytes plus the opaque IngestCtx routing context. Writers must not
	// retain it past the WriteBatch call.
	PacketDatagram = dataplane.Datagram
	// PacketPipe is an in-memory datagram conduit with message boundaries,
	// the stand-in for a socket in tests. It honors the buffer-ownership
	// rules (pool-backed copies, no retained slices) and is a PacketWriter.
	PacketPipe = dataplane.Pipe
	// BufferPool recycles fixed-size datagram payload buffers through the
	// data-plane (WithBufferPool) so the hot path runs allocation-free.
	BufferPool = dataplane.BufferPool
	// BufferPoolStats is a point-in-time snapshot of a BufferPool's traffic.
	BufferPoolStats = dataplane.PoolStats
)

// NewDataplane returns an egress engine pacing at rate bits/sec under the
// named algorithm:
//
//	dp, err := hpfq.NewDataplane(hpfq.WF2QPlus, 50e6,
//	        hpfq.WithTopology(top), hpfq.WithQueueCap(256))
//
// The engine always schedules through an H-PFQ tree. Flat mode (no
// WithTopology) is its one-level case: Dataplane.AddClass grafts each class
// with an absolute guaranteed rate under a root running the algorithm.
// WithTopology builds a link-sharing tree whose leaves become the classes.
// Every node runs the algorithm's node form. Start the pump with Start,
// feed it with Ingest, stop with Close.
func NewDataplane(algorithm Algorithm, rate float64, opts ...DataplaneOption) (*Dataplane, error) {
	var all []dataplane.Option
	for _, o := range opts {
		all = append(all, o.dataplaneOptions()...)
	}
	return dataplane.New(string(algorithm), rate, all...)
}

// WithTopology schedules the data-plane's classes hierarchically over a
// link-sharing tree (the leaves become the classes). Per-node disciplines
// resolve as in NewHierarchy: WithNodePolicy, then the topology's ':policy'
// annotations, then WithPolicy, then the algorithm argument.
func WithTopology(top *Topology) DataplaneOption {
	return dpOptions{dataplane.WithTopology(top)}
}

// WithQueueCap bounds every class's staging queue to n datagrams; arrivals
// beyond it are tail-dropped and recorded in the metrics. 0 = unlimited;
// a negative n fails NewDataplane.
func WithQueueCap(n int) DataplaneOption { return dpOptions{dataplane.WithQueueCap(n)} }

// WithByteCap bounds every class's staged bytes to n; arrivals that would
// exceed it are dropped and recorded. 0 = unlimited; a negative n fails
// NewDataplane.
func WithByteCap(n int) DataplaneOption { return dpOptions{dataplane.WithByteCap(n)} }

// WithBurst sets the data-plane's token-bucket depth in bits, trading
// batching efficiency against short-term burstiness. 0 selects the default,
// 5 ms of the configured rate; a negative, NaN or infinite depth fails
// NewDataplane.
func WithBurst(bits float64) DataplaneOption { return dpOptions{dataplane.WithBurst(bits)} }

// WithAQM enables CoDel (RFC 8289, 5 ms target, 100 ms interval) on every
// data-plane class as graceful degradation under overload: packets whose
// staging sojourn stays above target for a full interval are shed at
// dequeue (reason DropCoDel).
func WithAQM() DataplaneOption { return dpOptions{dataplane.WithAQM()} }

// --------------------------------------------------------------------------
// Loss-resilient egress: FEC repair classes (internal/fec).
// Dataplane.ProtectClass protects an existing class before Start (the
// '!fec' topology clause, e.g. "a=2!rs-8-2:0", is the spec-side spelling):
// the pump FEC-stamps every source datagram, and each block's repairs
// leave on a sibling repair class scheduled by the same WF²Q+/H-PFQ
// machinery as everything else, so repair bandwidth competes fairly and can
// never starve the siblings. The receive side decodes with FECDecoder and
// reports loss back through FECFeedback; FECConfig.Adapt then retunes the
// geometry to track the observed loss.

// FECSpec is an erasure-code geometry: Scheme (FECSchemeXOR or FECSchemeRS),
// K source datagrams per block, R repair datagrams. Parse the "rs-8-2" /
// "xor-8" string form with ParseFECSpec.
type FECSpec = fec.Spec

// FECConfig tunes one class protected with Dataplane.ProtectClass: whether
// the adaptive-redundancy controller runs. Everything else is fixed or
// derives from the tree: a partial block flushes after DefaultFECBlockAge,
// the repair class is class + DefaultRepairClassOffset, its leaf is named
// "<leaf>.fec", and its share is the protected leaf's share times R/K.
type FECConfig = dataplane.FECConfig

// FECDecoder is the receive side: feed it every arriving datagram with Push;
// native datagrams pass through, FEC sources are unwrapped, and each block's
// erased sources are reconstructed as soon as enough symbols arrive.
type FECDecoder = fec.Decoder

// FECDecoderStats is the decoder's counter snapshot (FECDecoder.Stats).
type FECDecoderStats = fec.DecoderStats

// FEC scheme names for FECSpec.
const (
	// FECSchemeXOR is single-parity XOR: R is fixed at 1; repairs any one
	// erasure per block at 1/(K+1) overhead.
	FECSchemeXOR = fec.SchemeXOR
	// FECSchemeRS is systematic Reed-Solomon over GF(2^8): any K of the K+R
	// datagrams reconstruct the block.
	FECSchemeRS = fec.SchemeRS
)

// DefaultRepairClassOffset derives every repair class id: protected class
// c's repairs ride class c+1000.
const DefaultRepairClassOffset = dataplane.DefaultRepairClassOffset

// DefaultFECBlockAge bounds how long a partial FEC block waits for its K-th
// source before its repairs flush anyway.
const DefaultFECBlockAge = dataplane.DefaultFECBlockAge

// ParseFECSpec parses an erasure-code geometry string: "rs-8-2" (RS, K=8,
// R=2), "xor-8" (XOR parity over 8 sources), colon separators accepted.
func ParseFECSpec(s string) (FECSpec, error) { return fec.ParseSpec(s) }

// NewFECDecoder returns a receive-side decoder. One decoder serves any
// number of protected classes — blocks are keyed by the stream id in each
// header.
func NewFECDecoder() *FECDecoder { return fec.NewDecoder() }

// IsFECDatagram reports whether b starts with the FEC header magic — how a
// receiver distinguishes protected traffic from native datagrams.
func IsFECDatagram(b []byte) bool { return fec.IsFEC(b) }

// FECStatus is one protected class's row in DataplaneStatus.FEC.
type FECStatus = dataplane.FECStatus

// WithBufferPool hands the data-plane a payload buffer pool (nil selects
// the process-wide SharedBufferPool): once Ingest succeeds on a buffer
// obtained from the pool the engine owns it and returns it to the pool when
// the datagram is written or dropped, making the
// ingress → staging → egress → release cycle allocation-free at steady
// state. Without this option the engine never recycles payload buffers.
func WithBufferPool(p *BufferPool) DataplaneOption { return dpOptions{dataplane.WithBufferPool(p)} }

// Batch and buffer defaults.
const (
	// DefaultBatchSize is the WriteBatch chunk ceiling.
	DefaultBatchSize = dataplane.DefaultBatchSize
	// MaxDatagramSize is the default BufferPool buffer length — large enough
	// for any UDP datagram.
	MaxDatagramSize = dataplane.MaxDatagramSize
)

// NewBufferPool returns a pool of fixed-size payload buffers (non-positive
// size selects MaxDatagramSize).
func NewBufferPool(size int) *BufferPool { return dataplane.NewBufferPool(size) }

// SharedBufferPool returns the process-wide pool of MaxDatagramSize
// buffers; components exchanging datagrams through the same pool recycle
// buffers across stage boundaries.
func SharedBufferPool() *BufferPool { return dataplane.SharedBufferPool() }

// IsTransientIOError reports whether an I/O error classifies as transient —
// the exact predicate the data-plane pump uses for its retry-or-drop
// decision (self-classifying Transient() errors, net.Error timeouts,
// EAGAIN-style errnos, short writes). Ingress loops use it to survive
// injected or real transient read errors without tearing down.
func IsTransientIOError(err error) bool { return dataplane.IsTransient(err) }

// NewPacketPipe returns an in-memory datagram conduit buffering up to
// capacity in-flight datagrams, borrowing internal buffers from the shared
// pool.
func NewPacketPipe(capacity int) *PacketPipe { return dataplane.NewPipe(capacity) }

// NewPacketPipePool is NewPacketPipe with an explicit BufferPool (nil
// selects the shared pool), so tests can observe recycling on their own
// pool.
func NewPacketPipePool(capacity int, pool *BufferPool) *PacketPipe {
	return dataplane.NewPipePool(capacity, pool)
}

// --------------------------------------------------------------------------
// Control plane: live introspection and hitless reconfiguration.

// DataplaneStatus is the control plane's one-call view of a running engine:
// configuration, lifecycle, the scheduler snapshot, the live topology, and
// per-class staging state. Read it with Dataplane.Status; the admin server
// serves it on /api/status.
type DataplaneStatus = dataplane.Status

// ClassStatus is one class's row in DataplaneStatus.
type ClassStatus = dataplane.ClassStatus

// TreeNodeInfo describes one live node of a data-plane tree, a flat
// engine's one-level tree included (DataplaneStatus.Nodes, Hierarchy.Nodes).
type TreeNodeInfo = hier.NodeInfo

// AdminServer is the gateway's HTTP control plane (internal/ctl): live
// introspection (/healthz, /status, /api/status, /api/nodes, /api/flows,
// /api/policies) and hitless mutations (/api/class/*, /api/node/*) over a
// running Dataplane or ShardedDataplane. Construct with NewAdminServer, then
// Start/Close, or mount Handler under an existing server.
type AdminServer = ctl.Server

// AdminEngine is the engine surface the admin server drives; *Dataplane and
// *ShardedDataplane both satisfy it.
type AdminEngine = ctl.Engine

// AdminOption configures an AdminServer.
type AdminOption = ctl.Option

// FlowInfo is one row of a gateway's client flow table, published on the
// admin server's /api/flows endpoint via WithAdminFlows.
type FlowInfo = ctl.FlowInfo

// FlowSource supplies the current flow table to the admin server; it must
// be safe for concurrent use.
type FlowSource = ctl.FlowSource

// NewAdminServer returns an admin HTTP server over eng. Over a
// ShardedDataplane, reads aggregate across shards (plus per-shard
// drill-down on /api/shards) and mutations fan out to every shard.
func NewAdminServer(eng AdminEngine, opts ...AdminOption) *AdminServer {
	return ctl.New(eng, opts...)
}

// WithAdminFlows publishes the flow table fs on the admin server's
// /api/flows endpoint.
func WithAdminFlows(fs FlowSource) AdminOption { return ctl.WithFlows(fs) }

// --------------------------------------------------------------------------
// Overload control: pressure tracking, load shedding, brownout, watchdog
// (internal/overload, wired through the data-plane).

// HealthState is the data-plane's overload health verdict, advancing
// Healthy → Degraded → Overloaded → Wedged as smoothed pressure crosses
// fixed thresholds (degraded at 0.5, overloaded at 0.8) and back down with
// hysteresis (below 0.6 and 0.35). Read it cheaply with
// Dataplane.HealthState, or in full with Dataplane.Health.
type HealthState = overload.State

// Health states, in escalation order.
const (
	// Healthy: no overload response active.
	Healthy = overload.Healthy
	// Degraded: priority-aware shedding — the lowest-share classes (repair
	// classes first) refuse intake with ErrShedding.
	Degraded = overload.Degraded
	// Overloaded: brownout — FEC encoding and tracing switch off, the
	// gateway refuses new flows, and /healthz answers 503.
	Overloaded = overload.Overloaded
	// Wedged: the pump watchdog's circuit breaker tripped (stalled writer
	// or restart storm); writes fail fast until progress resumes.
	Wedged = overload.Wedged
)

// OverloadSignals is one raw pressure sample: staging occupancy against the
// caps, buffer-pool miss rate, write-retry fraction, pump restart rate, and
// heartbeat age (HealthStatus.Signals).
type OverloadSignals = overload.Signals

// HealthStatus is the detailed health report behind Dataplane.Health,
// /healthz, and the admin server's GET /api/health.
type HealthStatus = dataplane.HealthStatus

// ErrShedding reports an Ingest refused because the overload controller is
// currently shedding the class; the datagram was dropped and recorded with
// reason DropShed.
var ErrShedding = dataplane.ErrShedding

// WithOverload enables the data-plane's pressure-and-health subsystem: a
// monitor goroutine samples staging occupancy, pool pressure, retry/restart
// rates and the pump heartbeat, smooths them into a pressure score, and
// walks the Healthy → Degraded → Overloaded → Wedged state machine with
// hysteresis. Degraded sheds the lowest-share classes first; Overloaded
// adds brownout (FEC and tracing off, 503 on /healthz). The tuning is
// fixed: a sample every 25 ms, EWMA gain 0.3, and a circuit breaker that
// trips after 3 consecutive watchdog stalls or 8 pump restarts in 10 s.
func WithOverload() DataplaneOption {
	return dpOptions{dataplane.WithOverload()}
}

// WithWatchdog arms the pump watchdog: a heartbeat older than timeout while
// work is queued counts as a stall, interrupts the blocked write with a
// write deadline (any Writer with SetWriteDeadline), and after repeated
// stalls trips the circuit breaker to Wedged instead of hot-looping. The
// timeout replaces the 500 ms stall threshold WithOverload uses alone, and
// implies WithOverload.
func WithWatchdog(timeout time.Duration) DataplaneOption {
	return dpOptions{dataplane.WithWatchdog(timeout)}
}

// --------------------------------------------------------------------------
// Sharded multi-core data plane (internal/shard): N independent engines
// behind one front, flows partitioned by consistent hash, the shared link
// kept work-conserving by a per-tick rate splitter.

// ShardedDataplane runs N independent Dataplane engines — one per CPU —
// behind a single control surface. Each shard owns a full scheduler tree,
// token bucket, staging queues and pump over a 1/N slice of the link;
// packets never cross a shard boundary, so the hot path takes no
// cross-shard locks. A rate splitter lends idle shards' pacing budget to
// backlogged ones each tick (deficit-carrying), keeping the aggregate link
// work-conserving. Route traffic with IngestKeyCtx (software
// consistent hash) or pin whole sockets to shards via Shard(i) in
// SO_REUSEPORT deployments. Mutations (AddClass, SetRate, …) fan out to
// every shard atomically with respect to each pump.
type ShardedDataplane = shard.Sharded

// NewShardedDataplane builds shards independent engines under the named
// algorithm, each pacing at rate/shards with guarantees, ceilings and burst
// scaled to its slice, behind one ShardedDataplane front. shards == 1
// degenerates to a bare engine behind the front (no splitter, no scaling).
// The option set is applied identically to every shard — required for the
// fan-out mutation contract.
func NewShardedDataplane(algorithm Algorithm, rate float64, shards int, opts ...DataplaneOption) (*ShardedDataplane, error) {
	var all []dataplane.Option
	for _, o := range opts {
		all = append(all, o.dataplaneOptions()...)
	}
	return shard.New(string(algorithm), rate, shards, all)
}

// FlowKey hashes arbitrary flow-identifying bytes into the 64-bit key
// ShardedDataplane.IngestKeyCtx partitions on (FNV-1a, allocation-free).
func FlowKey(b []byte) uint64 { return shard.Key(b) }

// FlowKeyAddr hashes an IP/port endpoint into a flow key without
// allocating — the per-datagram path of a single-socket gateway.
func FlowKeyAddr(ip []byte, port int) uint64 { return shard.KeyAddr(ip, port) }
