package pifo

import (
	"fmt"
	"math"

	"hpfq/internal/obs"
)

// Node is the generic hierarchical server-node host: one PIFO over the
// one-packet logical queues of the node's children, with all discipline
// behavior delegated to the Policy. Its clock is the policy's virtual time
// (reference time T_n = W_n/r_n for the work-driven policies, §4.1); it
// satisfies sched.NodeScheduler.
type Node struct {
	name string
	rate float64 // node guaranteed rate, kept for policy rebuilds
	bound
	tagless bool
	defined []bool
	queued  []bool
	rates   []float64 // per-child guaranteed rates, kept for rebuilds
	obs.Collector
}

// NewNode hosts the factory's node policy for a node of guaranteed rate r_n
// in bits/sec. It panics if the factory has no node form.
func NewNode(f Factory, rate float64) *Node {
	if f.Node == nil {
		panic(fmt.Sprintf("pifo: policy %q has no node form", f.Name))
	}
	n := &Node{
		name:    f.Name,
		rate:    rate,
		bound:   bind(f, f.Node(rate), 4),
		tagless: f.Tagless,
	}
	n.InitNodeObs(f.Name, rate)
	return n
}

// Name identifies the hosted policy.
func (n *Node) Name() string { return n.name }

// Policy exposes the hosted policy (for tests and instrumentation).
func (n *Node) Policy() Policy { return n.pol }

// VirtualTime returns the policy's virtual time.
func (n *Node) VirtualTime() float64 { return n.pol.V() }

// AddChild registers child id with guaranteed rate in bits/sec.
func (n *Node) AddChild(id int, rate float64) {
	if id < 0 {
		panic("pifo: negative child id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("pifo: invalid child rate %g", rate))
	}
	for len(n.defined) <= id {
		n.defined = append(n.defined, false)
		n.queued = append(n.queued, false)
		n.rates = append(n.rates, 0)
	}
	if n.defined[id] {
		panic(fmt.Sprintf("pifo: duplicate child id %d", id))
	}
	n.defined[id] = true
	n.rates[id] = rate
	n.q.Grow(id)
	n.pol.AddFlow(id, rate)
	n.RegisterSession(id, rate)
}

// Push marks child id backlogged with a head packet of the given length.
// cont selects the continuation case (the child was just served and remains
// backlogged — eq. 28's S ← F chaining, or DRR's front-of-round rejoin).
func (n *Node) Push(id int, length float64, cont bool) {
	if id < 0 || id >= len(n.defined) || !n.defined[id] {
		panic(fmt.Sprintf("pifo: push to undefined child %d", id))
	}
	if n.queued[id] {
		panic(fmt.Sprintf("pifo: push to already-backlogged child %d", id))
	}
	if length <= 0 || math.IsNaN(length) || math.IsInf(length, 0) {
		panic(fmt.Sprintf("pifo: invalid packet length %g", length))
	}
	// One V read for the whole push: Arrive never moves the clock (Policy
	// contract), and interface dispatch is hot here.
	v := n.pol.V()
	st := n.pol.Arrive(v, id, length, cont)
	n.queued[id] = true
	n.q.Push(id, length, st, v)
	n.RecordEnqueue(v, id, length)
}

// Pop selects and commits the next child to serve, advancing the node's
// virtual clock. ok is false when no child is backlogged.
func (n *Node) Pop() (int, bool) {
	if n.q.Empty() {
		return -1, false
	}
	if mp, some := n.q.MinParked(); some {
		if n.floor != nil {
			n.q.Migrate(n.floor.FloorV(mp, n.q.HaveReady()))
		} else {
			n.q.Migrate(n.pol.V())
		}
	}
	id, length, st := n.q.Pop()
	if n.defr != nil {
		for {
			rank, deferred := n.defr.Defer(id, length)
			if !deferred {
				break
			}
			rst := *st
			rst.Rank, rst.Gated = rank, false
			n.q.Reinsert(id, length, rst)
			id, length, st = n.q.Pop()
		}
	}
	n.queued[id] = false
	v := n.pol.Commit(id, length, *st, n.q.Len())
	if n.tagless {
		n.RecordDequeue(v, id, length)
	} else {
		n.RecordDequeueVT(v, id, length, st.S, st.F, v)
	}
	return id, true
}

// Backlogged reports whether any child is backlogged.
func (n *Node) Backlogged() bool { return !n.q.Empty() }
