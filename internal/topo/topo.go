// Package topo describes link-sharing hierarchies: the trees of service
// shares that configure both the packet H-PFQ servers (internal/hier) and
// the fluid H-GPS reference server (internal/fluid). A topology is what the
// paper draws in Fig. 1, Fig. 3 and Fig. 8: interior nodes are link-sharing
// classes, leaves are sessions with packet queues.
package topo

import (
	"fmt"
	"math"
	"slices"
)

// Node is one node of a link-sharing hierarchy. Share is the node's service
// share φ relative to its siblings; shares are normalized by the sibling sum
// when guaranteed rates are computed, so they need not sum to 1 (the paper
// assumes Σ_child φ = φ_parent; normalization generalizes that without
// changing any ratio).
type Node struct {
	Name     string
	Share    float64
	Session  int // leaf session id; -1 for interior nodes
	Children []*Node
	// Policy optionally names the scheduling policy for this node's server
	// (see internal/pifo). Only interior nodes carry a server in H-PFQ, so
	// a leaf's Policy is recorded but unused by the hierarchy; empty means
	// "inherit the hierarchy default". Set directly, via WithPolicy, or via
	// the ':policy' clause of the Parse grammar.
	Policy string
	// Ceil optionally caps the node's service rate in absolute bits/sec.
	// Zero means uncapped: H-PFQ is work-conserving, so the node may use
	// any bandwidth its siblings leave idle; a ceiling is the one limit on
	// that, enforced by the scheduler the dataplane builds from the
	// topology. Unlike Share (relative), Ceil is absolute because it is an
	// operator-facing limit independent of what siblings exist. Set
	// directly, via WithCeil, or via the '^ceil' clause of the Parse
	// grammar.
	Ceil float64
	// FEC optionally names an erasure-code geometry protecting this leaf's
	// egress (internal/fec spec syntax, e.g. "rs-8-2" or "xor-8"). Leaves
	// only — repair datagrams ride a sibling repair class the dataplane
	// grafts next to the leaf. Set directly, via WithFEC, or via the '!fec'
	// clause of the Parse grammar. The string is opaque here; the dataplane
	// parses and validates it when the engine is built.
	FEC string
}

// WithCeil sets the node's ceiling in bits/sec and returns the node,
// for chaining in literal topologies.
func (n *Node) WithCeil(ceil float64) *Node {
	n.Ceil = ceil
	return n
}

// WithPolicy sets the node's per-node policy name and returns the node, for
// chaining in literal topologies.
func (n *Node) WithPolicy(policy string) *Node {
	n.Policy = policy
	return n
}

// WithFEC sets the leaf's erasure-code geometry (internal/fec spec syntax)
// and returns the node, for chaining in literal topologies.
func (n *Node) WithFEC(spec string) *Node {
	n.FEC = spec
	return n
}

// Leaf returns a leaf (session) node.
func Leaf(name string, share float64, session int) *Node {
	return &Node{Name: name, Share: share, Session: session}
}

// Interior returns an interior (link-sharing class) node.
func Interior(name string, share float64, children ...*Node) *Node {
	return &Node{Name: name, Share: share, Session: -1, Children: children}
}

// IsLeaf reports whether the node is a session leaf.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Validate checks that the tree is well formed: positive finite shares,
// non-nil children, every leaf carries a unique non-negative session id, and
// every interior node has at least one child. It reports the first fault in
// depth-first preorder.
func (n *Node) Validate() error {
	return n.validate(nil)
}

// Check validates the node's own fields — a positive finite share, a finite
// non-negative ceiling, a non-negative session id on a leaf, and neither a
// session id nor FEC on an interior node — but not its children: Validate
// is Check on every node in preorder plus unique session ids.
func (n *Node) Check() error {
	if n == nil {
		return fmt.Errorf("topo: nil node")
	}
	if n.Share <= 0 || math.IsNaN(n.Share) || math.IsInf(n.Share, 0) {
		return fmt.Errorf("topo: node %q has invalid share %g", n.Name, n.Share)
	}
	if n.Ceil < 0 || math.IsNaN(n.Ceil) || math.IsInf(n.Ceil, 0) {
		return fmt.Errorf("topo: node %q has invalid ceil %g", n.Name, n.Ceil)
	}
	if n.IsLeaf() {
		if n.Session < 0 {
			return fmt.Errorf("topo: leaf %q has negative session id %d", n.Name, n.Session)
		}
		return nil
	}
	if n.Session >= 0 {
		return fmt.Errorf("topo: interior node %q must not carry session id %d", n.Name, n.Session)
	}
	if n.FEC != "" {
		return fmt.Errorf("topo: interior node %q cannot carry FEC %q (leaves only)", n.Name, n.FEC)
	}
	return nil
}

// validate is Validate collecting the leaves into leaves, whose capacity
// Parse sizes from its leaf count. A duplicate session among the leaves
// before the first Check fault comes first in preorder, so it wins.
func (n *Node) validate(leaves []*Node) error {
	err := n.check(&leaves)
	if dup := duplicate(leaves); dup != nil {
		return dup
	}
	return err
}

// check runs Check over the subtree in preorder up to the first fault,
// appending the leaves it passes to leaves.
func (n *Node) check(leaves *[]*Node) error {
	if err := n.Check(); err != nil {
		return err
	}
	if n.IsLeaf() {
		*leaves = append(*leaves, n)
		return nil
	}
	for _, c := range n.Children {
		if err := c.check(leaves); err != nil {
			return err
		}
	}
	return nil
}

// duplicate reports the first leaf, in the preorder of leaves, whose
// session an earlier leaf carries, naming the earliest such leaf; nil when
// every session is unique. Sorted, the sessions show which ids repeat; a
// second pass in preorder finds the first repeat.
func duplicate(leaves []*Node) error {
	sessions := make([]int, len(leaves))
	for i, l := range leaves {
		sessions[i] = l.Session
	}
	slices.Sort(sessions)
	var dups []int
	for k := 1; k < len(sessions); k++ {
		if s := sessions[k]; s == sessions[k-1] && (len(dups) == 0 || dups[len(dups)-1] != s) {
			dups = append(dups, s)
		}
	}
	first := make([]*Node, len(dups))
	for _, l := range leaves {
		if i, ok := slices.BinarySearch(dups, l.Session); ok {
			if first[i] != nil {
				return fmt.Errorf("topo: session %d used by both %q and %q", l.Session, first[i].Name, l.Name)
			}
			first[i] = l
		}
	}
	return nil
}

// Leaves returns all session leaves in depth-first order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node, _ int) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// Walk visits every node in depth-first preorder with its depth. It skips
// nil children, which Validate reports.
func (n *Node) Walk(fn func(node *Node, depth int)) {
	n.walk(fn, 0)
}

func (n *Node) walk(fn func(*Node, int), depth int) {
	fn(n, depth)
	for _, c := range n.Children {
		if c != nil {
			c.walk(fn, depth+1)
		}
	}
}

// Depth returns the height of the tree (a single leaf under the root has
// depth 1).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Rates computes the guaranteed rate r_n = φ_n·r of every node for a link of
// the given rate, normalizing shares by the sibling sum at each level. The
// result maps node pointers to rates.
func (n *Node) Rates(linkRate float64) map[*Node]float64 {
	rates := make(map[*Node]float64)
	rates[n] = linkRate
	n.assignRates(linkRate, rates)
	return rates
}

func (n *Node) assignRates(rate float64, rates map[*Node]float64) {
	if n.IsLeaf() {
		return
	}
	var sum float64
	for _, c := range n.Children {
		sum += c.Share
	}
	for _, c := range n.Children {
		r := rate * c.Share / sum
		rates[c] = r
		c.assignRates(r, rates)
	}
}

// SessionRates returns the guaranteed rate of every session leaf.
func (n *Node) SessionRates(linkRate float64) map[int]float64 {
	rates := n.Rates(linkRate)
	out := make(map[int]float64)
	for _, l := range n.Leaves() {
		out[l.Session] = rates[l]
	}
	return out
}

// FindSession returns the leaf carrying the given session id, or nil.
func (n *Node) FindSession(session int) *Node {
	var found *Node
	n.Walk(func(m *Node, _ int) {
		if m.IsLeaf() && m.Session == session {
			found = m
		}
	})
	return found
}

// Find returns the first node with the given name, or nil.
func (n *Node) Find(name string) *Node {
	var found *Node
	n.Walk(func(m *Node, _ int) {
		if found == nil && m.Name == name {
			found = m
		}
	})
	return found
}

// PathToSession returns the nodes from the root (inclusive) down to the leaf
// carrying the session, or nil if absent. This is the ancestor chain
// p^H(i), ..., p(i), i used in Theorem 1 and Corollary 2.
func (n *Node) PathToSession(session int) []*Node {
	if n.IsLeaf() {
		if n.Session == session {
			return []*Node{n}
		}
		return nil
	}
	for _, c := range n.Children {
		if sub := c.PathToSession(session); sub != nil {
			return append([]*Node{n}, sub...)
		}
	}
	return nil
}
