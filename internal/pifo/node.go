package pifo

import (
	"fmt"
	"math"
	"slices"

	"hpfq/internal/obs"
)

// Node is the generic hierarchical server-node host: one PIFO over the
// one-packet logical queues of the node's children. Its clock is the
// policy's virtual time (reference time T_n = W_n/r_n for the work-driven
// policies, §4.1); it satisfies sched.NodeScheduler.
//
// Each child is one slot record in the PIFO (see slot). When the node runs
// WF²Q+ — the paper's node discipline and the data plane's default — Push
// and Pop run its arithmetic inline on the slots, with no Policy object:
// eq. 28's stamps, the SEFF gate, eq. 27's floor and V += L/r_n, in the same
// float operations as the wf2qPlus policy the flat host runs. Every other
// discipline is delegated to its Policy.
type Node struct {
	queue
	wf2qp   bool    // WF²Q+ runs inline; bound is zero
	v       float64 // WF²Q+ system virtual time
	rate    float64 // node guaranteed rate r_n
	bound           // the hosted policy, when not WF²Q+
	name    string
	tagless bool
	obs.Collector
}

// NewNode hosts the factory's node policy for a node of guaranteed rate r_n
// in bits/sec. It panics if the factory has no node form.
func NewNode(f Factory, rate float64) *Node {
	if f.Node == nil {
		panic(fmt.Sprintf("pifo: policy %q has no node form", f.Name))
	}
	n := &Node{rate: rate}
	n.bind(f)
	return n
}

// bind makes f's node form the hosted discipline on an emptied PIFO with
// its virtual clock at zero. A WF²Q+ policy is not kept: its state lives in
// the node (v, rate) and in the slots (rate, last finish tag).
func (n *Node) bind(f Factory) {
	pol := f.Node(n.rate)
	_, n.wf2qp = pol.(*wf2qPlus)
	n.v = 0
	if n.wf2qp {
		n.bound = bound{}
	} else {
		n.bound = bindPolicy(pol)
	}
	n.reset(f.Monotone)
	n.name, n.tagless = f.Name, f.Tagless
	n.InitNodeObs(f.Name, n.rate)
}

// Name identifies the hosted policy.
func (n *Node) Name() string { return n.name }

// VirtualTime returns the policy's virtual time.
func (n *Node) VirtualTime() float64 {
	if n.wf2qp {
		return n.v
	}
	return n.pol.V()
}

func (n *Node) child(id int) *slot {
	if id < 0 || id >= len(n.slots) || !n.slots[id].defined {
		return nil
	}
	return &n.slots[id]
}

// Reserve makes room for child ids below children — the slot table and
// the collector's registrations — so a builder adding them all allocates
// each once.
func (n *Node) Reserve(children int) {
	if children > len(n.slots) {
		n.slots = slices.Grow(n.slots, children-len(n.slots))
	}
	n.ReserveSessions(children)
}

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *Node) AddChild(id int, rate float64) {
	if id < 0 {
		panic("pifo: negative child id")
	}
	if !validRate(rate) {
		panic(fmt.Sprintf("pifo: invalid child rate %g", rate))
	}
	n.grow(id)
	if n.slots[id].defined {
		panic(fmt.Sprintf("pifo: duplicate child id %d", id))
	}
	n.slots[id] = slot{rate: rate, defined: true}
	if !n.wf2qp {
		n.pol.AddFlow(id, rate)
	}
	n.RegisterSession(id, rate)
}

// Push marks child id backlogged with a head packet of the given length.
// cont selects the continuation case (the child was just served and remains
// backlogged — eq. 28's S ← F chaining, or DRR's front-of-round rejoin).
func (n *Node) Push(id int, length float64, cont bool) {
	sl := n.child(id)
	if sl == nil {
		panic(fmt.Sprintf("pifo: push to undefined child %d", id))
	}
	if sl.queued {
		panic(fmt.Sprintf("pifo: push to already-backlogged child %d", id))
	}
	if length <= 0 || math.IsNaN(length) || math.IsInf(length, 0) {
		panic(fmt.Sprintf("pifo: invalid packet length %g", length))
	}
	sl.queued = true
	v := n.enter(id, length, cont)
	n.RecordEnqueue(v, id, length)
}

// enter stamps child id's head of the given length and inserts it into the
// PIFO, returning the virtual time it was stamped at. WF²Q+ inline is eq.
// 28 (S ← F for a continuation, else max(F, V); F ← S + L/r_i) with the
// entry parked while S > V + Eps; other policies stamp through Arrive,
// which never moves the clock (Policy contract), so one V read serves.
func (n *Node) enter(id int, length float64, cont bool) float64 {
	sl := &n.slots[id]
	sl.length = length
	if !n.wf2qp {
		v := n.pol.V()
		sl.st = n.pol.Arrive(v, id, length, cont)
		n.insert(id, v)
		return v
	}
	s := sl.st.F
	if !cont {
		s = max(s, n.v) // the builtin max is math.Max, inlined
	}
	f := s + length/sl.rate
	sl.st = Stamp{S: s, F: f, Rank: f, Elig: s, Gated: true}
	n.count++
	if s > n.v+Eps {
		n.parked.push(int32(id), s)
	} else {
		n.ready.push(int32(id), f)
	}
	return n.v
}

// Pop selects and commits the next child to serve, advancing the node's
// virtual clock. ok is false when no child is backlogged.
func (n *Node) Pop() (int, bool) {
	if n.count == 0 {
		return -1, false
	}
	if !n.wf2qp {
		return n.popPolicy(), true
	}
	if !n.parked.empty() {
		// Eq. 27's min-term: with nothing eligible, V jumps to the smallest
		// parked start so the node stays work-conserving.
		if mp := n.parked.minKey(); n.ready.empty() && mp > n.v {
			n.v = mp
		}
		n.migrate(n.v)
	}
	id := n.pop()
	sl := &n.slots[id]
	sl.queued = false
	n.v += sl.length / n.rate
	n.RecordDequeueVT(n.v, id, sl.length, sl.st.S, sl.st.F, n.v)
	return id, true
}

func (n *Node) popPolicy() int {
	n.settle(&n.bound)
	id := n.popDeferring(&n.bound)
	sl := &n.slots[id]
	sl.queued = false
	v := n.pol.Commit(id, sl.length, sl.st, n.count)
	if n.tagless {
		n.RecordDequeue(v, id, sl.length)
	} else {
		n.RecordDequeueVT(v, id, sl.length, sl.st.S, sl.st.F, v)
	}
	return id
}

// Backlogged reports whether any child is backlogged.
func (n *Node) Backlogged() bool { return n.count > 0 }
