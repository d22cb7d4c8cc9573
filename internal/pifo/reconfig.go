package pifo

import (
	"fmt"
	"math"
)

// This file is the live-reconfiguration surface of the node host: rate
// retuning, child removal, and whole-policy swaps on a running hierarchy
// node. The control plane (internal/ctl via internal/dataplane and
// internal/hier) calls these between pump iterations, so every method must
// leave the node in a state the next Push/Pop can serve without draining
// first. The flat host (Sched) is the simulator's and is not mutated live.
//
// The hooks are optional Policy extensions: a policy that cannot be mutated
// simply does not implement them, and the host returns a descriptive error
// instead of corrupting virtual-time state. The exact-GPS-clock policies
// (WFQ, WF²Q) are the deliberate holdouts — the fluid simulation's
// per-session state is not safely mutable mid-busy-period, so trees carrying
// them refuse retunes rather than approximate one.

// Retuner is the optional Policy extension for live per-flow rate changes.
// The new rate applies to stamps issued after the call; stamps already in
// the PIFO keep the tags computed under the old rate (one packet of
// transition error, the same bound the paper's tag algebra gives a
// newly-backlogged flow).
type Retuner interface {
	SetFlowRate(id int, rate float64)
}

// FlowRemover is the optional Policy extension for removing a flow's state.
// Hosts call it only once the flow is idle (nothing queued, nothing in the
// PIFO); the id may later be re-added with AddFlow.
type FlowRemover interface {
	RemoveFlow(id int)
}

// RateSetter is the optional Policy extension for changing the server's own
// rate (a hierarchy node's guaranteed rate r_n). Policies whose clocks are
// rate-independent (SCFQ, SFQ, DRR, SP) need not implement it; the host
// treats absence as a no-op.
type RateSetter interface {
	SetServerRate(rate float64)
}

func validRate(rate float64) bool {
	return rate > 0 && !math.IsNaN(rate) && !math.IsInf(rate, 0)
}

// Retunable / Removable report whether the hosted policy implements the
// corresponding hook — capability probes the hierarchy uses to pre-check a
// whole subtree before mutating any of it (all-or-nothing retunes). WF²Q+
// inline supports both.
func (n *Node) Retunable() bool { _, ok := n.pol.(Retuner); return ok || n.wf2qp }
func (n *Node) Removable() bool { _, ok := n.pol.(FlowRemover); return ok || n.wf2qp }

// SetChildRate retunes child id's guaranteed rate in bits/sec on the live
// node. It fails when the hosted policy has no Retuner hook.
func (n *Node) SetChildRate(id int, rate float64) error {
	sl := n.child(id)
	if sl == nil {
		return fmt.Errorf("pifo: unknown child %d", id)
	}
	if !validRate(rate) {
		return fmt.Errorf("pifo: invalid child rate %g", rate)
	}
	if !n.wf2qp {
		rt, ok := n.pol.(Retuner)
		if !ok {
			return fmt.Errorf("pifo: policy %q does not support live retuning", n.name)
		}
		rt.SetFlowRate(id, rate)
	}
	sl.rate = rate
	n.RegisterSession(id, rate)
	return nil
}

// RemoveChild removes an idle child from the live node. The child must not
// be backlogged; its id may later be re-added with AddChild.
func (n *Node) RemoveChild(id int) error {
	sl := n.child(id)
	if sl == nil {
		return fmt.Errorf("pifo: unknown child %d", id)
	}
	if sl.queued {
		return fmt.Errorf("pifo: child %d still backlogged", id)
	}
	if !n.wf2qp {
		rm, ok := n.pol.(FlowRemover)
		if !ok {
			return fmt.Errorf("pifo: policy %q does not support live removal", n.name)
		}
		rm.RemoveFlow(id)
	}
	*sl = slot{}
	return nil
}

// SetNodeRate changes the node's own guaranteed rate r_n. Policies whose
// clocks do not depend on the server rate ignore it (no RateSetter hook).
func (n *Node) SetNodeRate(rate float64) error {
	if !validRate(rate) {
		return fmt.Errorf("pifo: invalid node rate %g", rate)
	}
	n.rate = rate
	if rs, ok := n.pol.(RateSetter); ok {
		rs.SetServerRate(rate)
	}
	n.InitNodeObs(n.name, rate)
	return nil
}

// SetPolicy swaps the hosted discipline on the live node. Backlogged
// children stay backlogged: the old PIFO is drained and every entry is
// re-stamped against the fresh policy (virtual clock restarting at zero) as
// a non-continuation arrival, in the old rank order.
func (n *Node) SetPolicy(f Factory) error {
	if f.Node == nil {
		return fmt.Errorf("pifo: policy %q has no node form", f.Name)
	}
	order := make([]int, 0, n.count)
	for n.count > 0 {
		order = append(order, n.pop())
	}
	n.bind(f)
	for id := range n.slots {
		sl := &n.slots[id]
		if !sl.defined {
			continue
		}
		sl.st = Stamp{} // the fresh policy's flows start with no finish tag
		if !n.wf2qp {
			n.pol.AddFlow(id, sl.rate)
		}
	}
	for _, id := range order {
		n.enter(id, n.slots[id].length, false)
	}
	return nil
}
