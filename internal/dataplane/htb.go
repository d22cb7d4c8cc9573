package dataplane

import (
	"math"
	"sort"
	"time"

	"hpfq/internal/packet"
)

// HTB-style rate/ceil borrowing on top of the PFQ scheduler.
//
// The scheduler alone is work-conserving: an idle sibling's bandwidth flows
// to the backlogged ones automatically, but nothing stops a class from using
// the whole link. HTB semantics add the missing cap: every class (and, over
// a topology, every named node) carries a token bucket filling at its
// guaranteed rate plus a second bucket filling at its ceiling, and a packet
// enters the scheduler only when some node on its root path has guaranteed
// tokens to lend AND no node on the path is past its ceiling. The PFQ
// scheduler still orders everything admitted — borrowing decides *whether*
// a packet may compete now, WF²Q+ decides *when* it leaves.
//
// Mechanically, the pump parks staged datagrams at a per-class gate
// (classState.gate) and calls releaseGated before every batch's dequeue:
// each class's gate head is admitted against the token tree until a
// bucket runs dry, with the class visit order rotating batch to batch so no
// class systematically drinks first. Admission charges the packet to every
// node on its path — the borrower's own bucket goes negative (clamped at
// -burst, bounding how long a returning guarantee takes to reclaim its
// rate: ~burst/rate ≈ 5 ms) — which is exactly how an HTB borrower repays
// the lender when its own traffic resumes.
//
// The token mirror is rebuilt from scratch on every reconfiguration
// (rebuildHTBLocked): mutations are rare and the admit path is hot, so
// there is no incremental bookkeeping to corrupt. Requeued packets
// (retry-exhausted with WithRequeue) re-enter the scheduler directly,
// bypassing the gate — they already paid for admission once.

// maxGateWait caps the pump's sleep while gates refill, so a wildly
// underestimated refill never stalls the link.
const maxGateWait = 10 * time.Millisecond

// bucketDepth sizes a token bucket in bits: 5 ms at the node's rate, floored
// at two of the paper's 8 KB packets so slow classes can still emit one
// maximum-size datagram per refill.
func bucketDepth(rate float64) float64 {
	d := rate * 0.005
	if min := 2 * float64(packet.Bits8KB); d < min {
		d = min
	}
	return d
}

// htbNode is one node of the token mirror: a bucket at the guaranteed rate
// and, when capped, a second at the ceiling.
type htbNode struct {
	parent *htbNode
	rate   float64 // guaranteed rate, bits/sec
	ceil   float64 // ceiling, bits/sec; <= 0 means uncapped
	burst  float64 // rate-bucket depth, bits
	cburst float64 // ceil-bucket depth, bits
	tokens float64 // guaranteed tokens; negative while borrowing
	ctok   float64 // ceiling tokens; negative blocks the subtree
	last   float64 // last refill, engine seconds
}

func newHTBNode(parent *htbNode, rate, ceil, now float64) *htbNode {
	n := &htbNode{parent: parent, rate: rate, ceil: ceil, last: now}
	n.burst = bucketDepth(rate)
	n.tokens = n.burst
	if ceil > 0 {
		n.cburst = bucketDepth(ceil)
		n.ctok = n.cburst
	}
	return n
}

// refill credits the elapsed time to both buckets, capped at their depths.
func (n *htbNode) refill(now float64) {
	dt := now - n.last
	if dt <= 0 {
		return
	}
	n.last = now
	if n.tokens += dt * n.rate; n.tokens > n.burst {
		n.tokens = n.burst
	}
	if n.ceil > 0 {
		if n.ctok += dt * n.ceil; n.ctok > n.cburst {
			n.ctok = n.cburst
		}
	}
}

// htb is the token mirror of the scheduling tree (or, in flat mode, a
// one-level root-plus-leaves star), indexed by class id.
type htb struct {
	leaves map[int]*htbNode
	path   []*htbNode // admit scratch, leaf → root
}

// admit asks whether class id may send a bits-sized packet now. Admission
// requires a lender — some node on the root path whose guaranteed bucket is
// non-negative — and a clear ceiling path. On admission the packet is
// charged to every node on the path and admit returns (true, 0); otherwise
// it returns false and the seconds until the decisive bucket refills.
func (h *htb) admit(id int, bits, now float64) (bool, float64) {
	n := h.leaves[id]
	if n == nil {
		return true, 0 // no bucket for this class: never gated
	}
	h.path = h.path[:0]
	for m := n; m != nil; m = m.parent {
		m.refill(now)
		h.path = append(h.path, m)
	}
	// Ceiling check: any capped node in deficit blocks the whole path.
	blocked, wait := false, 0.0
	for _, m := range h.path {
		if m.ceil > 0 && m.ctok < 0 {
			if w := -m.ctok / m.ceil; !blocked || w > wait {
				blocked, wait = true, w
			}
		}
	}
	if blocked {
		return false, wait
	}
	// Lender check: the nearest ancestor (or the leaf itself) with
	// guaranteed tokens left pays for the packet.
	lender := -1
	for i, m := range h.path {
		if m.tokens >= 0 {
			lender = i
			break
		}
	}
	if lender < 0 {
		wait = math.Inf(1)
		for _, m := range h.path {
			if w := -m.tokens / m.rate; w < wait {
				wait = w
			}
		}
		return false, wait
	}
	// Charge the whole path: borrowers run their own bucket negative
	// (clamped at -burst) and repay the lender as it refills.
	for _, m := range h.path {
		if m.tokens -= bits; m.tokens < -m.burst {
			m.tokens = -m.burst
		}
		if m.ceil > 0 {
			m.ctok -= bits
		}
	}
	return true, 0
}

// rebuildClassOrderLocked recomputes the rotating class visit order for gate
// release. Caller holds d.mu and d.smu.
func (d *Dataplane) rebuildClassOrderLocked() {
	d.gateOrder = d.gateOrder[:0]
	for id := range d.classes {
		d.gateOrder = append(d.gateOrder, id)
	}
	sort.Ints(d.gateOrder)
	if d.gateStart >= len(d.gateOrder) {
		d.gateStart = 0
	}
	d.rebuildShedOrderLocked()
}

// rebuildHTBLocked rebuilds the token mirror from the current classes (flat
// mode) or the live tree (topology mode) and the ceiling maps. Caller holds
// d.mu and d.smu. Buckets start full — a reconfiguration grants every
// class one fresh burst, the same grace a newly started engine gives.
func (d *Dataplane) rebuildHTBLocked() {
	// Rates may have moved (SetRate/SetWeight land here); keep the derived
	// shed order in sync even when borrowing is off.
	d.rebuildShedOrderLocked()
	if !d.borrow {
		d.htb = nil
		return
	}
	now := d.now()
	h := &htb{leaves: make(map[int]*htbNode)}
	if d.tree != nil {
		byName := make(map[string]*htbNode)
		var root *htbNode
		for _, info := range d.tree.Nodes() {
			parent := root
			if info.Parent != "" {
				if p, ok := byName[info.Parent]; ok {
					parent = p
				}
			} else if root == nil {
				parent = nil // the root itself
			}
			var ceil float64
			if info.Session >= 0 {
				ceil = d.ceils[info.Session]
			} else {
				ceil = d.nodeCeils[info.Name]
			}
			n := newHTBNode(parent, info.Rate, ceil, now)
			if root == nil {
				root = n
			}
			if info.Name != "" {
				byName[info.Name] = n
			}
			if info.Session >= 0 {
				h.leaves[info.Session] = n
			}
		}
	} else {
		root := newHTBNode(nil, d.rate, 0, now)
		for id, cs := range d.classes {
			h.leaves[id] = newHTBNode(root, cs.rate, d.ceils[id], now)
		}
	}
	d.htb = h
}

// releaseGated admits gate-parked datagrams into the scheduler against the
// token tree and refreshes the pump's gateWait hint. The class visit order
// rotates every call so token contention is shared fairly. Caller holds
// d.smu; no-op (and zero-cost) when borrowing is off.
func (d *Dataplane) releaseGated(now float64) {
	d.gateWait = 0
	if d.htb == nil || d.gated == 0 {
		return
	}
	earliest := math.Inf(1)
	n := len(d.gateOrder)
	for i := 0; i < n; i++ {
		cs := d.classes[d.gateOrder[(d.gateStart+i)%n]]
		if cs == nil || cs.gateHead >= len(cs.gate) {
			continue
		}
		id := d.gateOrder[(d.gateStart+i)%n]
		for cs.gateHead < len(cs.gate) {
			env := cs.gate[cs.gateHead]
			ok, wait := d.htb.admit(id, env.pkt.Length, now)
			if !ok {
				if wait < earliest {
					earliest = wait
				}
				break
			}
			cs.gate[cs.gateHead] = nil
			cs.gateHead++
			d.gated--
			d.q.Enqueue(now, &env.pkt)
		}
		switch {
		case cs.gateHead == len(cs.gate):
			cs.gate = cs.gate[:0]
			cs.gateHead = 0
		case cs.gateHead >= 64 && cs.gateHead*2 >= len(cs.gate):
			m := copy(cs.gate, cs.gate[cs.gateHead:])
			for j := m; j < len(cs.gate); j++ {
				cs.gate[j] = nil
			}
			cs.gate = cs.gate[:m]
			cs.gateHead = 0
		}
	}
	if n > 0 {
		d.gateStart = (d.gateStart + 1) % n
	}
	if d.gated > 0 {
		w := maxGateWait
		if !math.IsInf(earliest, 1) {
			if ww := time.Duration(earliest * float64(time.Second)); ww < w {
				w = ww
			}
		}
		if w < minWait {
			w = minWait
		}
		d.gateWait = w
	}
}
