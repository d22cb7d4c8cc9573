package hier

import (
	"errors"
	"fmt"
	"math"

	"hpfq/internal/errs"
	"hpfq/internal/pifo"
	"hpfq/internal/sched"
)

// This file is the live-mutation surface of the H-PFQ tree: share retunes,
// leaf grafts and removals, and per-node policy swaps on a running server.
// The dataplane calls these between pump iterations while holding its own
// lock, so nothing here synchronizes; the contract is that every method
// either applies fully or reports an error without touching scheduler state
// (capability pre-checks walk the affected subtree before the first write).
//
// Shares, not rates, are the mutable quantity — exactly the link-sharing
// model of the paper (§2): a node's guaranteed rate is always
// r_parent · φ/Σφ over its live siblings, so adding a class dilutes its
// siblings proportionally and removing one lets them inherit the freed
// bandwidth, with no reservation bookkeeping to corrupt. The exception is
// NewFlat's root, whose children carry absolute rates (§4's node model):
// a graft, retune or removal there changes the named child alone.

// ErrLeafBusy reports a RemoveLeaf on a leaf that still holds packets —
// either queued in its FIFO or committed on the active path. The caller owns
// the drain story: stop feeding the session and retry once it quiesces.
var ErrLeafBusy = errors.New("hier: leaf still holds packets")

// retunable and removable are the capability probes pifo hosts implement
// (see pifo.Node.Retunable); bespoke node schedulers without them are
// treated as immutable.
type retunable interface{ Retunable() bool }
type removable interface{ Removable() bool }

// NodeInfo describes one live node of the tree: the control plane's display
// record.
type NodeInfo struct {
	Name    string
	Parent  string  // parent node name; "" for the root
	Rate    float64 // guaranteed rate r_n in bits/sec
	Share   float64 // service share φ relative to siblings
	Session int     // leaf session id; -1 for interior nodes
	Policy  string  // interior node's scheduler name; "" for leaves
	Ceil    float64 // ceiling in bits/sec (SetCeil, SetNodeCeil, '^ceil'); 0 = uncapped
}

// Nodes returns every live node in depth-first preorder, root first.
func (tr *Tree) Nodes() []NodeInfo {
	var out []NodeInfo
	var walk func(n *node)
	walk = func(n *node) {
		info := NodeInfo{
			Name:    n.name,
			Rate:    n.rate,
			Share:   n.share,
			Session: n.session,
			Ceil:    tr.shape.Rate(n.id),
		}
		if n.parent != nil {
			info.Parent = n.parent.name
		}
		if !n.isLeaf() {
			info.Policy = n.ns.Name()
		}
		out = append(out, info)
		for _, c := range n.children {
			if !c.removed {
				walk(c)
			}
		}
	}
	walk(tr.root)
	return out
}

// retuneCheck verifies that every interior scheduler in the subtree rooted
// at n supports live rate changes, so a cascade that follows cannot fail
// halfway down.
func (tr *Tree) retuneCheck(n *node) error {
	if n.isLeaf() || n.removed {
		return nil
	}
	if _, ok := n.ns.(sched.NodeReconfigurer); !ok {
		return fmt.Errorf("hier: node %q scheduler %q does not support live reconfiguration", n.name, n.ns.Name())
	}
	if rt, ok := n.ns.(retunable); !ok || !rt.Retunable() {
		return fmt.Errorf("hier: node %q policy %q does not support live retuning", n.name, n.ns.Name())
	}
	for _, c := range n.children {
		if err := tr.retuneCheck(c); err != nil {
			return err
		}
	}
	return nil
}

// applyShares recomputes the guaranteed rates of parent's live children from
// their shares (r_c = r_parent · φ_c/Σφ) and cascades the new rates down the
// subtree. Callers must have passed retuneCheck(parent) first.
func (tr *Tree) applyShares(parent *node) error {
	if parent.abs {
		return nil // absolute children keep their rates
	}
	var sum float64
	for _, c := range parent.children {
		if !c.removed {
			sum += c.share
		}
	}
	if sum <= 0 {
		return fmt.Errorf("hier: node %q has no live children", parent.name)
	}
	r := parent.ns.(sched.NodeReconfigurer)
	for _, c := range parent.children {
		if c.removed {
			continue
		}
		rate := parent.rate * c.share / sum
		if err := r.SetChildRate(c.childIdx, rate); err != nil {
			return err
		}
		if err := tr.setRate(c, rate); err != nil {
			return err
		}
	}
	return nil
}

func (tr *Tree) setRate(n *node, rate float64) error {
	n.rate = rate
	if n.isLeaf() {
		tr.RegisterSession(n.session, rate)
		return nil
	}
	if err := n.ns.(sched.NodeReconfigurer).SetNodeRate(rate); err != nil {
		return err
	}
	return tr.applyShares(n)
}

func validShare(share float64) bool {
	return share > 0 && !math.IsNaN(share) && !math.IsInf(share, 0)
}

// SetNodeShare retunes the named node's service share φ relative to its
// siblings on the live tree; sibling subtrees rescale proportionally. The
// root carries no share (it always owns the full link rate), and a flat
// tree's leaves carry rates (SetSessionRate).
func (tr *Tree) SetNodeShare(name string, share float64) error {
	if tr.Flat() {
		return fmt.Errorf("hier: no topology; flat classes carry rates, not shares")
	}
	n, ok := tr.names()[name]
	if !ok {
		return fmt.Errorf("hier: no node %q", name)
	}
	if !validShare(share) {
		return fmt.Errorf("hier: invalid share %g for node %q", share, name)
	}
	if n.parent == nil {
		return fmt.Errorf("hier: root %q carries no share", name)
	}
	if err := tr.retuneCheck(n.parent); err != nil {
		return err
	}
	old := n.share
	n.share = share
	if err := tr.applyShares(n.parent); err != nil {
		n.share = old
		return err
	}
	return nil
}

// SetSessionRate retunes a session leaf to a target absolute guaranteed rate
// in bits/sec. Under an absolute-rate parent (NewFlat) the leaf alone
// changes. Elsewhere it solves for the share that yields the rate against
// the current siblings: φ' = r'·Σφ_others/(r_parent − r'); the target must
// stay strictly below the parent's rate, and the leaf must have live
// siblings to trade share against.
func (tr *Tree) SetSessionRate(session int, rate float64) error {
	leaf := tr.leaf(session)
	if leaf == nil {
		return fmt.Errorf("hier: unknown session %d", session)
	}
	if !validShare(rate) {
		return fmt.Errorf("hier: invalid rate %g for session %d", rate, session)
	}
	parent := leaf.parent
	if parent.abs {
		return tr.setAbs(leaf, rate)
	}
	var others float64
	for _, c := range parent.children {
		if !c.removed && c != leaf {
			others += c.share
		}
	}
	if others == 0 {
		return fmt.Errorf("hier: session %d is the only child of %q; its rate is pinned to the parent's %g", session, parent.name, parent.rate)
	}
	if rate >= parent.rate {
		return fmt.Errorf("hier: session %d target rate %g must be below parent %q rate %g", session, rate, parent.name, parent.rate)
	}
	if err := tr.retuneCheck(parent); err != nil {
		return err
	}
	old := leaf.share
	leaf.share = rate * others / (parent.rate - rate)
	if err := tr.applyShares(parent); err != nil {
		leaf.share = old
		return err
	}
	return nil
}

// setAbs retunes child c of an absolute-rate parent to rate, leaving its
// siblings as they are.
func (tr *Tree) setAbs(c *node, rate float64) error {
	if err := tr.retuneCheck(c.parent); err != nil {
		return err
	}
	if err := c.parent.ns.(sched.NodeReconfigurer).SetChildRate(c.childIdx, rate); err != nil {
		return err
	}
	c.share = rate
	return tr.setRate(c, rate)
}

// AddLeaf grafts a new session leaf with the given share under the named
// interior node on the live tree. Siblings dilute proportionally — the
// link-sharing semantics of the paper, so the graft always admits (there is
// no strict reservation to exceed). Under an absolute-rate parent (NewFlat's
// root, named "") share is the leaf's rate and the siblings stay as they
// are. name may be empty for an anonymous leaf (addressable only by session
// id).
func (tr *Tree) AddLeaf(parentName, name string, session int, share float64) error {
	parent, ok := tr.names()[parentName]
	if !ok {
		return fmt.Errorf("hier: no node %q", parentName)
	}
	if parent.isLeaf() {
		return fmt.Errorf("hier: node %q is a leaf, not a link-sharing class", parentName)
	}
	if session < 0 || session > MaxSession {
		return fmt.Errorf("hier: %w: session id %d outside [0, %d]", errs.ErrBadTopology, session, MaxSession)
	}
	if tr.Slot(session) >= 0 {
		return fmt.Errorf("hier: session %d already exists", session)
	}
	if name != "" {
		if _, dup := tr.byName[name]; dup {
			return fmt.Errorf("hier: node %q already exists", name)
		}
	}
	if !validShare(share) {
		return fmt.Errorf("hier: invalid share %g for leaf %q", share, name)
	}
	rate := share
	if !parent.abs {
		if err := tr.retuneCheck(parent); err != nil {
			return err
		}
		var sum float64
		for _, c := range parent.children {
			if !c.removed {
				sum += c.share
			}
		}
		rate = parent.rate * share / (sum + share)
	}
	// A removed child's slots (its index at the parent, its node id, a
	// leaf slot) are reused, so add/remove churn does not grow the tree.
	idx, id := len(parent.children), len(tr.nodes)
	for i, c := range parent.children {
		if c.removed {
			idx, id = i, c.id
			break
		}
	}
	leaf := &node{
		id:       id,
		name:     name,
		parent:   parent,
		childIdx: idx,
		rate:     rate,
		share:    share,
		session:  session,
		named:    name != "",
	}
	parent.ns.AddChild(idx, leaf.rate)
	if idx < len(parent.children) {
		parent.children[idx] = leaf
		tr.nodes[id] = leaf
	} else {
		parent.children = append(parent.children, leaf)
		tr.nodes = append(tr.nodes, leaf)
	}
	tr.addLeafSlot(leaf)
	if name != "" {
		tr.byName[name] = leaf
	}
	tr.RegisterSession(session, rate)
	return tr.applyShares(parent)
}

// CanRemoveLeaf reports whether the session leaf could be removed once it
// quiesces: RemoveLeaf's static capability checks (the parent's policy
// removes; under a share parent, its subtree retunes and the leaf is not the
// last child) without the quiescence test and without mutating anything.
// The dataplane calls it before committing a class to draining.
func (tr *Tree) CanRemoveLeaf(session int) error {
	leaf := tr.leaf(session)
	if leaf == nil {
		return fmt.Errorf("hier: unknown session %d", session)
	}
	parent := leaf.parent
	if rv, ok := parent.ns.(removable); !ok || !rv.Removable() {
		return fmt.Errorf("hier: node %q policy %q does not support live removal", parent.name, parent.ns.Name())
	}
	if parent.abs {
		return nil
	}
	if err := tr.retuneCheck(parent); err != nil {
		return err
	}
	var others float64
	for _, c := range parent.children {
		if !c.removed && c != leaf {
			others += c.share
		}
	}
	if others == 0 {
		return fmt.Errorf("hier: cannot remove session %d, the last child of %q", session, parent.name)
	}
	return nil
}

// RemoveLeaf detaches a quiesced session leaf from the live tree; its
// siblings inherit the freed share proportionally (under an absolute-rate
// parent they keep their rates). A leaf still holding packets (queued,
// committed, or on the wire until the next Dequeue resets the path) returns
// ErrLeafBusy — stop feeding the session and retry. The session id may
// later be re-added with AddLeaf.
func (tr *Tree) RemoveLeaf(session int) error {
	if err := tr.CanRemoveLeaf(session); err != nil {
		return err
	}
	leaf := tr.leaf(session)
	if !leaf.fifo.Empty() || leaf.hol != nil {
		return fmt.Errorf("%w: session %d", ErrLeafBusy, session)
	}
	parent := leaf.parent
	if err := parent.ns.(sched.NodeReconfigurer).RemoveChild(leaf.childIdx); err != nil {
		return err
	}
	if leaf.named {
		delete(tr.names(), leaf.name)
	}
	leaf.removed = true
	tr.shape.Set(leaf.id, 0, 0)
	tr.sessions[session] = 0
	tr.leaves[leaf.slot] = nil
	tr.free = append(tr.free, leaf.slot)
	return tr.applyShares(parent)
}

// SetNodePolicy swaps the scheduling discipline of the named interior node
// on the live tree ("" names a flat tree's root). Backlogged children stay
// backlogged, re-stamped against the fresh policy's virtual clock (see
// pifo.Node.SetPolicy).
func (tr *Tree) SetNodePolicy(name string, f pifo.Factory) error {
	n, ok := tr.names()[name]
	if !ok {
		return fmt.Errorf("hier: no node %q", name)
	}
	if n.isLeaf() {
		return fmt.Errorf("hier: leaf %q carries no server", name)
	}
	r, ok := n.ns.(sched.NodeReconfigurer)
	if !ok {
		return fmt.Errorf("hier: node %q scheduler %q does not support live reconfiguration", name, n.ns.Name())
	}
	if err := r.SetPolicy(f); err != nil {
		return err
	}
	if n.abs {
		tr.InitObs(f.Name, tr.rate) // a flat tree's metrics carry its root's policy
	}
	return nil
}

// SetCeil caps session's leaf at ceil bits/sec as of now (0 lifts the cap):
// a capped node in ceiling deficit is held out of its parent's scheduler
// until its release time (see arrive); lifting the cap releases it at once.
func (tr *Tree) SetCeil(session int, ceil, now float64) error {
	leaf := tr.leaf(session)
	if leaf == nil {
		return fmt.Errorf("hier: unknown session %d", session)
	}
	tr.setCeil(leaf, ceil, now)
	return nil
}

// SetNodeCeil is SetCeil for the named node: an interior node's ceiling
// bounds its whole subtree.
func (tr *Tree) SetNodeCeil(name string, ceil, now float64) error {
	n, ok := tr.names()[name]
	if !ok {
		return fmt.Errorf("hier: no node %q", name)
	}
	tr.setCeil(n, ceil, now)
	return nil
}

func (tr *Tree) setCeil(n *node, ceil, now float64) {
	if tr.shape == nil && ceil > 0 {
		tr.shape = new(pifo.Shaper)
	}
	if tr.shape.Set(n.id, ceil, now) && n.parent != nil {
		tr.arrive(n, false, now)
	}
}

// ScaleCeils divides every ceiling set so far by divisor: a sharding front
// runs N engines over one spec, each with its 1/N slice of every '^ceil'.
func (tr *Tree) ScaleCeils(divisor float64) {
	for id := range tr.nodes {
		if ceil := tr.shape.Rate(id); ceil > 0 {
			tr.shape.Set(id, ceil/divisor, 0)
		}
	}
}

// Ceil returns session's leaf ceiling in bits/sec, 0 when uncapped.
func (tr *Tree) Ceil(session int) float64 {
	if leaf := tr.leaf(session); leaf != nil {
		return tr.shape.Rate(leaf.id)
	}
	return 0
}

// Capped reports whether any node has a ceiling.
func (tr *Tree) Capped() bool { return tr.shape.Capped() }

// NextRelease returns when the first held node becomes releasable; ok is
// false when none is held.
func (tr *Tree) NextRelease() (at float64, ok bool) { return tr.shape.NextRelease() }
