package sched

import (
	"fmt"
	"math"

	"hpfq/internal/fluid"
	"hpfq/internal/obs"
	"hpfq/internal/pq"
)

// nodeChild is the per-child state shared by the node schedulers: the
// guaranteed rate and the length plus virtual times of the head packet of
// the child's logical queue.
type nodeChild struct {
	rate    float64
	length  float64
	s, f    float64
	defined bool
	queued  bool
}

type childSet struct {
	children []nodeChild
	count    int
}

func (cs *childSet) add(id int, rate float64) {
	if id < 0 {
		panic("sched: negative child id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("sched: invalid child rate %g", rate))
	}
	for len(cs.children) <= id {
		cs.children = append(cs.children, nodeChild{})
	}
	if cs.children[id].defined {
		panic(fmt.Sprintf("sched: duplicate child id %d", id))
	}
	cs.children[id] = nodeChild{rate: rate, defined: true}
}

func (cs *childSet) get(id int) *nodeChild {
	c := &cs.children[id]
	if !c.defined {
		panic(fmt.Sprintf("sched: unknown child id %d", id))
	}
	return c
}

// WFQNode is a WFQ server node for H-WFQ: it runs an exact GPS virtual
// clock over its children's logical queues, with real time replaced by the
// node's Reference Time T_n = W_n(0,t)/r_n (§4.1) — each Pop advances T_n by
// L/r_n. Head packets are stamped with eq. 6–7 when they enter the logical
// queue, and selection is smallest-virtual-finish-first (SFF).
//
// H-WFQ built from these nodes is the comparison system of every §5.1
// experiment: it inherits WFQ's large WFI at each level, producing the
// delay spikes of Fig. 4, 6, 7.
type WFQNode struct {
	rate  float64
	clock *fluid.Clock
	t     float64
	cs    childSet
	hol   *pq.Heap // child → head virtual finish
	obs.Collector
}

// NewWFQNode returns a WFQ node with guaranteed rate r_n in bits/sec.
func NewWFQNode(rate float64) *WFQNode {
	n := &WFQNode{rate: rate, clock: fluid.NewClock(rate), hol: pq.NewHeap(4)}
	n.InitNodeObs("WFQ", rate)
	return n
}

// Name identifies the algorithm.
func (n *WFQNode) Name() string { return "WFQ" }

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *WFQNode) AddChild(id int, rate float64) {
	n.cs.add(id, rate)
	n.clock.AddSession(id, rate)
	n.RegisterSession(id, rate)
}

// Push stamps the child's new head packet against the node's GPS fluid
// system at the current reference time: a newly backlogged child gets
// eq. 6 semantics (S = max(F_prev, V)); a continuation chains S = F_prev
// per the paper's Reset-Path pseudocode (lines 8–9), which compensates for
// the clock's head-of-queue-only view of the child's backlog.
func (n *WFQNode) Push(id int, length float64, cont bool) {
	c := n.cs.get(id)
	if c.queued {
		panic(fmt.Sprintf("sched: push to already-backlogged child %d", id))
	}
	n.clock.Advance(n.t)
	var s, f float64
	if cont {
		s, f = n.clock.StampChained(id, length)
	} else {
		s, f = n.clock.Stamp(id, length)
	}
	c.s, c.f, c.length, c.queued = s, f, length, true
	n.cs.count++
	n.hol.Push(id, f)
	n.RecordEnqueue(n.clock.V(), id, length)
}

// Pop selects the child with the smallest virtual finish (SFF) and advances
// the reference time by L/r_n.
func (n *WFQNode) Pop() (int, bool) {
	if n.cs.count == 0 {
		return -1, false
	}
	id := n.hol.MinID()
	n.hol.Remove(id)
	c := n.cs.get(id)
	c.queued = false
	n.cs.count--
	n.t += c.length / n.rate
	n.clock.Advance(n.t)
	n.RecordDequeueVT(n.clock.V(), id, c.length, c.s, c.f, n.clock.V())
	return id, true
}

// Backlogged reports whether any child is backlogged.
func (n *WFQNode) Backlogged() bool { return n.cs.count > 0 }

// WF2QNode is a WF²Q server node for H-WF²Q: exact GPS clock in reference
// time like WFQNode, but selection is SEFF (eligible = virtual start ≤
// V_GPS). It keeps WF²Q's optimal WFI at every level while paying the GPS
// clock's O(N) worst case — the configuration the paper improves on with
// H-WF²Q+.
type WF2QNode struct {
	rate  float64
	clock *fluid.Clock
	t     float64
	cs    childSet
	elig  *pq.Heap // by head F
	inel  *pq.Heap // by head S
	obs.Collector
}

// NewWF2QNode returns a WF²Q node with guaranteed rate r_n in bits/sec.
func NewWF2QNode(rate float64) *WF2QNode {
	n := &WF2QNode{rate: rate, clock: fluid.NewClock(rate), elig: pq.NewHeap(4), inel: pq.NewHeap(4)}
	n.InitNodeObs("WF2Q", rate)
	return n
}

// Name identifies the algorithm.
func (n *WF2QNode) Name() string { return "WF2Q" }

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *WF2QNode) AddChild(id int, rate float64) {
	n.cs.add(id, rate)
	n.clock.AddSession(id, rate)
	n.RegisterSession(id, rate)
}

// Push stamps the child's new head packet: eq. 6–7 for new backlogs,
// chained S = F_prev for continuations (see WFQNode.Push).
func (n *WF2QNode) Push(id int, length float64, cont bool) {
	c := n.cs.get(id)
	if c.queued {
		panic(fmt.Sprintf("sched: push to already-backlogged child %d", id))
	}
	n.clock.Advance(n.t)
	var s, f float64
	if cont {
		s, f = n.clock.StampChained(id, length)
	} else {
		s, f = n.clock.Stamp(id, length)
	}
	c.s, c.f, c.length, c.queued = s, f, length, true
	n.cs.count++
	if s <= n.clock.V()+eligEps {
		n.elig.Push(id, f)
	} else {
		n.inel.Push(id, s)
	}
	n.RecordEnqueue(n.clock.V(), id, length)
}

// Pop selects the eligible child with the smallest virtual finish (SEFF)
// and advances the reference time by L/r_n.
func (n *WF2QNode) Pop() (int, bool) {
	if n.cs.count == 0 {
		return -1, false
	}
	n.clock.Advance(n.t)
	v := n.clock.V()
	for !n.inel.Empty() && n.inel.MinKey() <= v+eligEps {
		id, _, _ := n.inel.Pop()
		n.elig.Push(id, n.cs.get(id).f)
	}
	var id int
	if !n.elig.Empty() {
		id = n.elig.MinID()
		n.elig.Remove(id)
	} else {
		id = n.inel.MinID()
		n.inel.Remove(id)
	}
	c := n.cs.get(id)
	c.queued = false
	n.cs.count--
	n.t += c.length / n.rate
	n.clock.Advance(n.t)
	n.RecordDequeueVT(n.clock.V(), id, c.length, c.s, c.f, n.clock.V())
	return id, true
}

// Backlogged reports whether any child is backlogged.
func (n *WF2QNode) Backlogged() bool { return n.cs.count > 0 }

// SCFQNode is a self-clocked fair queueing node for H-SCFQ: the node
// virtual time is the finish tag of the child last served.
type SCFQNode struct {
	cs  childSet
	v   float64
	hol *pq.Heap // by head finish tag
	obs.Collector
}

// NewSCFQNode returns an SCFQ node; rate is accepted for uniformity.
func NewSCFQNode(rate float64) *SCFQNode {
	n := &SCFQNode{hol: pq.NewHeap(4)}
	n.InitNodeObs("SCFQ", rate)
	return n
}

// Name identifies the algorithm.
func (n *SCFQNode) Name() string { return "SCFQ" }

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *SCFQNode) AddChild(id int, rate float64) {
	n.cs.add(id, rate)
	n.RegisterSession(id, rate)
}

// Push tags the child's head packet: F = max(F_prev, v) + L/r for a new
// backlog, F = F_prev + L/r for a continuation (chaining per the paper's
// Reset-Path pseudocode).
func (n *SCFQNode) Push(id int, length float64, cont bool) {
	c := n.cs.get(id)
	if c.queued {
		panic(fmt.Sprintf("sched: push to already-backlogged child %d", id))
	}
	if cont {
		c.f += length / c.rate
	} else {
		c.f = math.Max(c.f, n.v) + length/c.rate
	}
	c.length, c.queued = length, true
	n.cs.count++
	n.hol.Push(id, c.f)
	n.RecordEnqueue(n.v, id, length)
}

// Pop selects the smallest finish tag and advances v to it.
func (n *SCFQNode) Pop() (int, bool) {
	if n.cs.count == 0 {
		return -1, false
	}
	id := n.hol.MinID()
	n.hol.Remove(id)
	c := n.cs.get(id)
	c.queued = false
	n.cs.count--
	n.v = c.f
	n.RecordDequeueVT(n.v, id, c.length, c.f-c.length/c.rate, c.f, n.v)
	return id, true
}

// Backlogged reports whether any child is backlogged.
func (n *SCFQNode) Backlogged() bool { return n.cs.count > 0 }

// SFQNode is a start-time fair queueing node for H-SFQ: the node virtual
// time is the start tag of the child last served; selection is smallest
// start tag.
type SFQNode struct {
	cs   childSet
	v    float64
	maxF float64
	hol  *pq.Heap // by head start tag
	obs.Collector
}

// NewSFQNode returns an SFQ node; rate is accepted for uniformity.
func NewSFQNode(rate float64) *SFQNode {
	n := &SFQNode{hol: pq.NewHeap(4)}
	n.InitNodeObs("SFQ", rate)
	return n
}

// Name identifies the algorithm.
func (n *SFQNode) Name() string { return "SFQ" }

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *SFQNode) AddChild(id int, rate float64) {
	n.cs.add(id, rate)
	n.RegisterSession(id, rate)
}

// Push tags the child's head packet: S = max(F_prev, v) for a new backlog,
// S = F_prev for a continuation (chaining per the paper's Reset-Path
// pseudocode).
func (n *SFQNode) Push(id int, length float64, cont bool) {
	c := n.cs.get(id)
	if c.queued {
		panic(fmt.Sprintf("sched: push to already-backlogged child %d", id))
	}
	if cont {
		c.s = c.f
	} else {
		c.s = math.Max(c.f, n.v)
	}
	c.f = c.s + length/c.rate
	if c.f > n.maxF {
		n.maxF = c.f
	}
	c.length, c.queued = length, true
	n.cs.count++
	n.hol.Push(id, c.s)
	n.RecordEnqueue(n.v, id, length)
}

// Pop selects the smallest start tag and advances v to it. When the node
// empties, v jumps to the maximum assigned finish tag.
func (n *SFQNode) Pop() (int, bool) {
	if n.cs.count == 0 {
		return -1, false
	}
	id := n.hol.MinID()
	n.hol.Remove(id)
	c := n.cs.get(id)
	c.queued = false
	n.cs.count--
	n.v = c.s
	if n.cs.count == 0 {
		n.v = n.maxF
	}
	n.RecordDequeueVT(n.v, id, c.length, c.s, c.f, n.v)
	return id, true
}

// Backlogged reports whether any child is backlogged.
func (n *SFQNode) Backlogged() bool { return n.cs.count > 0 }

// DRRNode is a deficit round robin node for H-DRR. A child served and
// immediately re-pushed as a continuation keeps its place at the front of
// the round and its remaining deficit, preserving DRR's round structure
// across the hierarchy's one-packet logical queues.
type DRRNode struct {
	cs       childSet
	quantum  []float64
	deficit  []float64
	ring     []int
	credited int // front child already credited this round visit (-1 none)
	minRate  float64
	work     float64 // cumulative bits served, the node's only clock
	obs.Collector
}

// NewDRRNode returns a DRR node; rate is accepted for uniformity.
func NewDRRNode(rate float64) *DRRNode {
	n := &DRRNode{minRate: math.Inf(1), credited: -1}
	n.InitNodeObs("DRR", rate)
	return n
}

// Name identifies the algorithm.
func (n *DRRNode) Name() string { return "DRR" }

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *DRRNode) AddChild(id int, rate float64) {
	n.cs.add(id, rate)
	for len(n.quantum) <= id {
		n.quantum = append(n.quantum, 0)
		n.deficit = append(n.deficit, 0)
	}
	if rate < n.minRate {
		n.minRate = rate
	}
	for i := range n.cs.children {
		if n.cs.children[i].defined {
			n.quantum[i] = drrQuantumBase * n.cs.children[i].rate / n.minRate
		}
	}
	n.RegisterSession(id, rate)
}

// Push marks the child backlogged. A continuation rejoins at the front of
// the round keeping its deficit; a new backlog joins the tail with deficit
// zero.
func (n *DRRNode) Push(id int, length float64, cont bool) {
	c := n.cs.get(id)
	if c.queued {
		panic(fmt.Sprintf("sched: push to already-backlogged child %d", id))
	}
	c.length, c.queued = length, true
	n.cs.count++
	if cont {
		n.ring = append([]int{id}, n.ring...)
	} else {
		n.deficit[id] = 0
		n.ring = append(n.ring, id)
	}
	n.RecordEnqueue(n.work, id, length)
}

// Pop serves the front of the round once its deficit covers the head
// packet, crediting exactly one quantum per round visit. The credited mark
// survives the Pop so that a continuation re-push (same child back at the
// front) does not earn a second quantum in the same visit.
func (n *DRRNode) Pop() (int, bool) {
	for len(n.ring) > 0 {
		id := n.ring[0]
		c := n.cs.get(id)
		if n.credited != id {
			n.deficit[id] += n.quantum[id]
			n.credited = id
		}
		if n.deficit[id] < c.length {
			// Quantum exhausted: carry the deficit, move to the tail.
			n.ring = append(n.ring[1:], id)
			n.credited = -1
			continue
		}
		n.deficit[id] -= c.length
		c.queued = false
		n.cs.count--
		n.ring = n.ring[1:]
		n.work += c.length
		n.RecordDequeue(n.work, id, c.length)
		return id, true
	}
	return -1, false
}

// Backlogged reports whether any child is backlogged.
func (n *DRRNode) Backlogged() bool { return n.cs.count > 0 }
