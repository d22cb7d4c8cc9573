// Package core implements WF²Q+, the paper's primary contribution (§3.4):
// a packet fair queueing algorithm with
//
//	(a) the tightest delay bound among all PFQ algorithms,
//	(b) the smallest Worst-case Fair Index (WFI) among all PFQ algorithms, and
//	(c) O(log N) per-operation complexity.
//
// WF²Q+ uses the Smallest Eligible virtual Finish time First (SEFF) policy
// over a low-complexity system virtual time function (paper eq. 27):
//
//	V(t+τ) = max( V(t)+τ , min_{i∈B̂(t)} S_i^{h_i(t)} )
//
// and head-of-queue virtual start/finish times (paper eq. 28–29):
//
//	S_i = F_i                  if the session queue was non-empty
//	S_i = max(F_i, V)          if the packet arrives to an empty queue
//	F_i = S_i + L_i / r_i
//
// The same engine serves two roles: Scheduler is a standalone WF²Q+ server
// with per-session FIFO packet queues, and Node is a WF²Q+ server node for
// use inside an H-WF²Q+ hierarchy (see internal/hier), where it schedules
// the one-packet logical queues of its child nodes and advances its virtual
// clock in Reference Time units T_n = W_n(0,t)/r_n (paper §4.1).
package core

import (
	"fmt"
	"math"

	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/pq"
)

// vEps absorbs float64 summation noise when comparing virtual start times
// against the system virtual time for eligibility. Virtual times are in
// seconds; 1 ns of virtual slack is far below any packet transmission time.
const vEps = 1e-9

// flow is the per-session (or per-child) scheduling state: the head-of-queue
// virtual start and finish times from eq. 28–29.
type flow struct {
	rate    float64 // guaranteed rate r_i, bits/sec
	s, f    float64 // virtual start/finish of the head-of-queue packet
	length  float64 // length of the head-of-queue packet, bits
	queued  bool    // head-of-queue packet present (backlogged)
	defined bool    // AddFlow called
}

// engine is the WF²Q+ scheduling core shared by Scheduler and Node. It
// maintains the system virtual time V, the eligible set ordered by virtual
// finish time, and the ineligible set ordered by virtual start time; every
// operation is O(log N).
type engine struct {
	rate  float64 // server rate r (or node guaranteed rate r_n)
	v     float64 // system virtual time, eq. 27
	flows []flow
	elig  *pq.Heap // eligible flows (S_i <= V), keyed by F_i
	inel  *pq.Heap // ineligible flows (S_i > V), keyed by S_i
	count int      // backlogged flows
}

func newEngine(rate float64) *engine {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("core: invalid server rate %g", rate))
	}
	return &engine{
		rate: rate,
		elig: pq.NewHeap(8),
		inel: pq.NewHeap(8),
	}
}

func (e *engine) addFlow(id int, rate float64) {
	if id < 0 {
		panic("core: negative flow id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("core: invalid flow rate %g", rate))
	}
	for len(e.flows) <= id {
		e.flows = append(e.flows, flow{})
	}
	if e.flows[id].defined {
		panic(fmt.Sprintf("core: duplicate flow id %d", id))
	}
	e.flows[id] = flow{rate: rate, defined: true}
}

// push makes flow id backlogged with a head-of-queue packet of the given
// length. cont distinguishes the two cases of eq. 28: a continuation
// (the previous head departed and the queue is still non-empty, S ← F) from
// a new backlog period (packet arrived to an empty queue, S ← max(F, V)).
func (e *engine) push(id int, length float64, cont bool) {
	fl := &e.flows[id]
	if !fl.defined {
		panic(fmt.Sprintf("core: push to undefined flow %d", id))
	}
	if fl.queued {
		panic(fmt.Sprintf("core: push to already-backlogged flow %d", id))
	}
	if length <= 0 || math.IsNaN(length) || math.IsInf(length, 0) {
		panic(fmt.Sprintf("core: invalid packet length %g", length))
	}
	if cont {
		fl.s = fl.f
	} else {
		fl.s = math.Max(fl.f, e.v)
	}
	fl.f = fl.s + length/fl.rate
	fl.length = length
	fl.queued = true
	e.count++
	if fl.s <= e.v+vEps {
		e.elig.Push(id, fl.f)
	} else {
		e.inel.Push(id, fl.s)
	}
}

// pop selects the next flow to serve under SEFF and advances the virtual
// time per eq. 27 with τ = L/r (the normalized work of the selected packet).
// The selected flow leaves the backlogged set; the caller re-pushes it
// (cont=true) if it still has packets. ok is false when nothing is
// backlogged.
func (e *engine) pop() (id int, ok bool) {
	if e.count == 0 {
		return -1, false
	}
	// Work-conservation floor from eq. 27's min-term: the virtual time is at
	// least the smallest head-of-queue virtual start time, so at least one
	// flow is always eligible. The max keeps V monotone — entries parked in
	// the ineligible heap may have been overtaken by V since they were
	// pushed.
	if e.elig.Empty() && e.inel.MinKey() > e.v {
		e.v = e.inel.MinKey()
	}
	// Migrate newly eligible flows (S_i <= V) into the eligible heap.
	for !e.inel.Empty() && e.inel.MinKey() <= e.v+vEps {
		mid, _, _ := e.inel.Pop()
		e.elig.Push(mid, e.flows[mid].f)
	}
	id = e.elig.MinID()
	e.elig.Remove(id)
	fl := &e.flows[id]
	fl.queued = false
	e.count--
	// eq. 27 with τ = L/r: V ← max(V, Smin) + L/r. The max(V, Smin) part
	// happened above (V was floored at min S when no flow was eligible).
	e.v += fl.length / e.rate
	return id, true
}

// backlogged reports whether any flow has a queued head-of-queue packet.
func (e *engine) backlogged() bool { return e.count > 0 }

// virtualTime exposes V for tests and instrumentation.
func (e *engine) virtualTime() float64 { return e.v }

// Scheduler is a standalone WF²Q+ packet server: per-session FIFO queues in
// front of the WF²Q+ engine. It implements the Scheduler interface used by
// internal/netsim.Link.
//
// The virtual clock advances by L/r per dequeued packet, which during a
// server busy period is exactly the elapsed real time; across idle periods
// the min-S term of eq. 27 re-synchronizes V with the new backlog, so no
// wall-clock input is needed.
type Scheduler struct {
	eng     *engine
	queues  []packet.FIFO
	backlog int
	obs.Collector
}

// NewScheduler returns a standalone WF²Q+ server for a link of the given
// rate in bits/sec.
func NewScheduler(rate float64) *Scheduler {
	s := &Scheduler{eng: newEngine(rate)}
	s.InitObs("WF2Q+", rate)
	return s
}

// AddSession registers session id with guaranteed rate in bits/sec. The sum
// of the guaranteed rates must not exceed the server rate for the delay and
// fairness bounds of Theorem 4 to hold; this is the caller's admission
// control decision and is not enforced here.
func (s *Scheduler) AddSession(id int, rate float64) {
	s.eng.addFlow(id, rate)
	for len(s.queues) <= id {
		s.queues = append(s.queues, packet.FIFO{})
	}
	s.RegisterSession(id, rate)
}

// Name identifies the algorithm.
func (s *Scheduler) Name() string { return "WF2Q+" }

// Rate returns the configured server rate.
func (s *Scheduler) Rate() float64 { return s.eng.rate }

// SessionRate returns the guaranteed rate of session id.
func (s *Scheduler) SessionRate(id int) float64 { return s.eng.flows[id].rate }

// VirtualTime returns the current system virtual time (for tests and
// instrumentation).
func (s *Scheduler) VirtualTime() float64 { return s.eng.v }

// Enqueue accepts a packet at time now (seconds). now is accepted for
// interface uniformity with clock-driven schedulers (e.g. exact WFQ) but is
// not used: the WF²Q+ virtual clock is self-contained.
func (s *Scheduler) Enqueue(now float64, p *packet.Packet) {
	q := &s.queues[p.Session]
	q.Push(p)
	s.backlog++
	if q.Len() == 1 {
		s.eng.push(p.Session, p.Length, false)
	}
	s.RecordEnqueue(now, p.Session, p.Length)
}

// Dequeue selects the next packet to transmit under SEFF, or nil when the
// server is empty.
func (s *Scheduler) Dequeue(now float64) *packet.Packet {
	id, ok := s.eng.pop()
	if !ok {
		return nil
	}
	// The popped flow's stamps survive until a continuation re-push
	// overwrites them; capture them for the trace hook first.
	fl := &s.eng.flows[id]
	vs, vf, v := fl.s, fl.f, s.eng.v
	q := &s.queues[id]
	p := q.Pop()
	s.backlog--
	if !q.Empty() {
		s.eng.push(id, q.Head().Length, true)
	}
	s.RecordDequeueVT(now, id, p.Length, vs, vf, v)
	return p
}

// Backlog returns the number of queued packets.
func (s *Scheduler) Backlog() int { return s.backlog }

// QueueLen returns the number of packets queued for session id.
func (s *Scheduler) QueueLen(id int) int {
	if id < 0 || id >= len(s.queues) {
		return 0
	}
	return s.queues[id].Len()
}

// QueueBits returns the number of bits queued for session id.
func (s *Scheduler) QueueBits(id int) float64 {
	if id < 0 || id >= len(s.queues) {
		return 0
	}
	return s.queues[id].Bits()
}

// Node is a WF²Q+ server node for hierarchical composition: it schedules
// the one-packet logical queues of its children (paper §4.2). The hierarchy
// machinery in internal/hier calls Push when a child's logical queue becomes
// non-empty and Pop when the node must commit its next packet; Pop advances
// the node's virtual clock by L/r_n, i.e. in Reference Time units (§4.1).
type Node struct {
	eng *engine
	obs.Collector
}

// NewNode returns a WF²Q+ node with guaranteed rate r_n in bits/sec.
func NewNode(rate float64) *Node {
	n := &Node{eng: newEngine(rate)}
	n.InitNodeObs("WF2Q+", rate)
	return n
}

// Name identifies the algorithm.
func (n *Node) Name() string { return "WF2Q+" }

// AddChild registers child id with guaranteed rate r_m.
func (n *Node) AddChild(id int, rate float64) {
	n.eng.addFlow(id, rate)
	n.RegisterSession(id, rate)
}

// Push marks child id backlogged with a head packet of the given length.
// cont selects the eq. 28 case: true when the child was just served and
// remains backlogged (S ← F), false when it is newly backlogged
// (S ← max(F, V_n)).
func (n *Node) Push(id int, length float64, cont bool) {
	n.eng.push(id, length, cont)
	n.RecordEnqueue(n.eng.v, id, length)
}

// Pop selects the next child under SEFF and advances V_n per eq. 27.
func (n *Node) Pop() (id int, ok bool) {
	id, ok = n.eng.pop()
	if ok {
		fl := &n.eng.flows[id]
		n.RecordDequeueVT(n.eng.v, id, fl.length, fl.s, fl.f, n.eng.v)
	}
	return id, ok
}

// Backlogged reports whether any child is backlogged.
func (n *Node) Backlogged() bool { return n.eng.backlogged() }

// VirtualTime returns V_n (for tests and instrumentation).
func (n *Node) VirtualTime() float64 { return n.eng.v }

// Rate returns the node's guaranteed rate r_n.
func (n *Node) Rate() float64 { return n.eng.rate }
