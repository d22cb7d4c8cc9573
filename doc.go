// Package hpfq implements Hierarchical Packet Fair Queueing as described in
// Bennett & Zhang, "Hierarchical Packet Fair Queueing Algorithms"
// (SIGCOMM 1996): the WF²Q+ scheduling algorithm, hierarchical H-WF²Q+
// servers built from one-level PFQ server nodes, the baselines the paper
// compares against (WFQ, WF²Q, SCFQ, SFQ, DRR, FIFO), and the GPS / H-GPS
// fluid reference systems.
//
// # Quick start
//
// Create a standalone WF²Q+ scheduler for a 10 Mbps link with two sessions,
// and drive it on a simulated link:
//
//	sim := hpfq.NewSim()
//	sched, err := hpfq.New(hpfq.WF2QPlus, 10e6)
//	sched.AddSession(0, 7e6) // guaranteed 7 Mbps
//	sched.AddSession(1, 3e6) // guaranteed 3 Mbps
//	link := hpfq.NewLink(sim, 10e6, sched)
//	link.OnDepart(func(p *hpfq.Packet) { fmt.Println(p.Session, p.Depart) })
//	link.Arrive(hpfq.NewPacket(0, 12000))
//	sim.RunAll()
//
// Hierarchical link sharing (the paper's Fig. 1) is expressed as a topology
// of shares and built into an H-WF²Q+ server:
//
//	top := hpfq.Interior("link", 1,
//	    hpfq.Interior("A1", 0.5,
//	        hpfq.Leaf("rt", 0.6, 0),
//	        hpfq.Leaf("be", 0.4, 1)),
//	    hpfq.Leaf("A2", 0.5, 2))
//	tree, err := hpfq.NewHierarchy(top, 45e6, hpfq.WF2QPlus)
//
// A hierarchy satisfies the same Queue contract as a flat scheduler, so it
// drops into NewLink unchanged.
//
// # Constructors and options
//
// Algorithms are selected with the typed Algorithm constants (WF2QPlus, WFQ,
// WF2Q, SCFQ, SFQ, DRR, FIFO; Algorithm("WF2Q+fixed") for the integer-tick
// engine) via New, NewNode, and NewHierarchy, which accept functional options:
// WithMetrics enables per-server and per-session counters (packets, bits,
// queue depths, queueing-delay distributions, measured worst-case fair
// index), frozen on demand with Snapshot; WithTracer attaches a Tracer
// (NewRingTracer, NewJSONLTracer) that observes every enqueue, dequeue — with
// the virtual start/finish times behind each scheduling decision — and drop.
// Both default off and cost one branch per packet when disabled. WithNodes
// supplies a custom per-node constructor to NewHierarchy for mixed or
// experimental hierarchies. Unknown algorithms and malformed topologies are
// reported by wrapping the sentinel errors ErrUnknownAlgorithm,
// ErrBadTopology, and ErrNoNodeForm, so callers can branch with errors.Is.
//
// Units everywhere: bits, bits per second, seconds.
//
// # Serving real traffic
//
// NewDataplane builds a concurrent UDP egress engine around any registered
// algorithm with a node form (all but FIFO and WF2Q+fixed, which it
// refuses): goroutine-safe Ingest against bounded per-class caps
// (WithQueueCap / WithByteCap; drops recorded with their reason) that only
// stages the datagram, a single pump goroutine — the scheduler's only
// hot-path writer — releasing token-bucket batches in scheduler order at
// the configured rate to one PacketWriter (NewPacketPipe is the in-memory
// test double). The scheduler is always an H-PFQ tree: without
// WithTopology a one-level one whose root holds each AddClass class at its
// absolute rate (exactly the flat server for WF²Q+), with it a full
// link-sharing tree. Close drains the staged backlog before stopping;
// ExampleNewDataplane runs the whole cycle.
//
// The cmd/hpfqgw gateway packages this as a standalone paced UDP forwarder
// (see its command documentation for the flag grammar), with a NAT-style
// per-client flow table for the return path and a supervised, graceful-drain
// lifecycle.
//
// # Batching and buffer ownership
//
// Egress is batch-oriented. The PacketWriter receives each token-bucket
// release in WithBatchSize chunks; WriteBatch reports how many datagrams it
// delivered, the error applies to the first unwritten one, and the pump
// retries or drops that one per the failure policy, then re-offers the rest.
// A writer that routes by the IngestCtx context reads PacketDatagram.Ctx.
// Ingress is the caller's: read the socket, classify, and call Ingest or
// IngestCtx.
//
// WithBufferPool closes a zero-allocation buffer cycle: ingest a buffer
// obtained from the pool (NewBufferPool or SharedBufferPool), and the
// engine owns it from the moment Ingest returns nil until the datagram is
// written or dropped, then returns it to the pool on every path — written,
// tail-dropped, CoDel-shed, write-error, retry-exhausted, or lost to a
// recovered pump panic. Writers must not retain a datagram's bytes past the
// WriteBatch call. Without the option the engine never recycles payloads
// and callers keep ownership of rejected buffers only.
//
// # Failure handling
//
// The data-plane assumes its Writer can fail and the engine must not. Writer
// errors are classified: transient conditions (EAGAIN-style buffer
// exhaustion, timeouts, short writes, a momentarily absent UDP peer, or any
// error exposing Transient() bool) are retried in place with capped
// exponential backoff — WithWriteRetry(limit, backoff, cap), by default 3
// re-attempts from 500 µs doubling to 16 ms — while everything else drops
// the packet immediately. A packet that exhausts its retry budget is dropped
// too, so a class's surviving packets leave in the order they arrived.
// WithAQM() runs CoDel (RFC 8289, 5 ms target, 100 ms interval) on every
// class, shedding packets whose staging sojourn stays above target and
// bounding latency under overload where tail-drop would let it grow. The
// pump runs under a crash-only supervisor: a panic out of the Writer costs
// the in-flight batch, never the link, and DataplaneStatus.Restarts counts
// the recoveries.
//
// Every outcome is accounted in Metrics by reason. Drop reasons: DropTail
// and DropBytes (ingest caps), DropClosed (arrival after Close), DropWrite
// (fatal write error), DropRetries (retry budget exhausted), DropCoDel
// (AQM shed), DropPanic (lost with a recovered pump panic),
// DropShed (refused by the overload controller — the ShedReasons breakdown
// distinguishes pressure shedding from brownout refusals). The retry
// reason is RetryTransient (a backoff re-attempt). internal/faultconn
// injects deterministic seeded faults — including Gilbert–Elliott bursty
// loss — to exercise all of these paths (`make fault`).
//
// # Loss resilience
//
// Retry recovers errors the sender can observe; Dataplane.ProtectClass(class,
// spec, cfg), called before Start, or a '!fec' topology clause recovers
// datagrams the network silently drops. The protected class's
// egress is wrapped in a systematic erasure code (ParseFECSpec: "xor-k" or
// "rs-k-r", Reed-Solomon over GF(2⁸)), and each block's repair datagrams
// are enqueued into a grafted sibling repair class (class id +
// DefaultRepairClassOffset, R/K of the protected share) that competes under the schedulers like any
// other leaf — repair overhead is itself subject to fair queueing and can
// never starve siblings. Partial blocks flush after FECConfig.MaxBlockAge
// (DefaultFECBlockAge). The receive side runs NewFECDecoder: Push strips
// source headers, reassembles blocks in any arrival order, and
// reconstructs erased datagrams; IsFECDatagram routes mixed traffic. With
// FECConfig.Adapt, loss reported through Dataplane.FECFeedback drives an
// EWMA controller that retunes (k, r) within bounds at block boundaries.
// Counters: FECEncoded, FECRepairSent, FECRecovered, FECUnrecoverable
// (`make fec` runs the seeded recovery and fairness suite).
//
// # Overload control
//
// WithOverload() arms a pressure monitor that samples staging occupancy,
// buffer-pool misses, retry rates, pump restarts, and heartbeat age every
// 25 ms into a smoothed score driving a hysteresis state machine with
// fixed thresholds: Healthy → Degraded →
// Overloaded → Wedged (Dataplane.Health / HealthState, HTTP /healthz and
// GET /api/health). Under Degraded the engine sheds load class by class —
// repair classes first, then ascending share, never the top-share class
// (WithShedOrder overrides the order) — each refusal a drop with reason
// DropShed. Under Overloaded it browns out: FEC encoding and tracing pause,
// and the gateway refuses flows it has never seen while serving established
// ones. WithWatchdog(timeout) adds a pump watchdog: a stalled iteration
// forces a write deadline to break blocked writes, and circuit breakers
// (consecutive stalls, a restart storm) park the engine in Wedged instead
// of hot-looping. Everything recovers through the same hysteresis when
// pressure recedes (`make overload` runs the suite).
//
// # Layout
//
//   - internal/core: WF²Q+ (the paper's §3.4 algorithm, eq. 27–29)
//   - internal/sched: WFQ, WF²Q, SCFQ, SFQ, DRR, FIFO + per-node variants
//   - internal/hier: the H-PFQ tree of §4 (Arrive / Restart-Node / Reset-Path),
//     also the data plane's one-level flat scheduler
//   - internal/fluid: GPS virtual clock, GPS and H-GPS fluid servers
//   - internal/des, internal/netsim, internal/traffic, internal/tcp,
//     internal/stats: simulation substrate and instrumentation
//   - internal/wallclock, internal/dataplane, internal/shard: wall-clock
//     pacing in the concurrent UDP egress engine and its sharded front
//   - internal/fec: XOR / Reed-Solomon erasure coding with adaptive
//     redundancy control; internal/faultconn: seeded fault injection
//   - internal/experiments: every figure of the paper as a runnable
//     experiment (see EXPERIMENTS.md)
//
// This package re-exports the library's public surface; the cmd/hpfqsim
// tool regenerates the paper's figures from the command line,
// and cmd/hpfqgw forwards real UDP traffic under the schedulers' control.
package hpfq
