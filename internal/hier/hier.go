// Package hier implements Hierarchical Packet Fair Queueing (H-PFQ): a tree
// of one-level PFQ server nodes used as building blocks, exactly the
// construction of the paper's §4. Interior nodes schedule the one-packet
// *logical queues* of their children; leaves hold the real per-session FIFO
// queues. The control flow mirrors the paper's pseudocode:
//
//   - Arrive: a packet reaching an empty leaf queue becomes the leaf's
//     logical head and propagates up through idle ancestors below the root,
//     each committing its next packet (Restart-Node).
//   - Dequeue: the root commits its next packet (Q_R) if it has none, and
//     the link takes it.
//   - Reset-Path: when transmission completes, the logical queues along the
//     active path are cleared top-down, the leaf FIFO advances, and nodes
//     below the root recommit bottom-up; busy flags survive the reset so
//     continuations are stamped S ← F (eq. 28 first case).
//
// The per-node discipline is pluggable (sched.NodeScheduler): every
// registry discipline (H-WF²Q+, the paper's H-WFQ comparison, H-SCFQ,
// H-SFQ, H-DRR, …) is a policy hosted on internal/pifo's Node. Each node's
// virtual clock advances in Reference Time units T_n = W_n(0,t)/r_n (§4.1),
// so no wall clock enters the scheduling decisions.
//
// The one wall-clock element is ceilings (SetCeil, pifo.Shaper, and the
// topology's '^ceil' clauses, applied at build): a capped node in ceiling
// deficit is held instead of being pushed into its parent until its release
// time. Without ceilings the tree never reads now.
//
// A one-level hierarchy is PFQ. NewFlat builds that case directly: a root
// at the link rate whose children carry absolute guaranteed rates (§4's node
// model, Σ r_c ≤ r_n) rather than shares, grafted and retuned one at a time.
package hier

import (
	"fmt"

	"hpfq/internal/errs"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
	"hpfq/internal/sched"
	"hpfq/internal/topo"
)

// Tree is an H-PFQ server. It satisfies the queue contract used by
// netsim.Link (Enqueue/Dequeue/Backlog), so a hierarchical server drops in
// anywhere a flat scheduler does.
//
// Tree embeds a real-time collector covering the whole hierarchy (per
// session: counts, delays, WFI against the leaf's guaranteed rate);
// EnableMetrics and SetTracer cascade to every interior node's
// reference-time collector, whose snapshots NodeSnapshots exposes.
type Tree struct {
	algo string
	rate float64
	root *node
	// The leaf index (DESIGN.md S41), the one class index of an engine:
	// sessions maps a session id to its leaf's slot + 1 (0: no such
	// session), leaves holds the leaves by slot (nil while free), and free
	// lists the slots RemoveLeaf freed, which AddLeaf reuses last-freed
	// first, so add/remove churn keeps every table at its high-water mark.
	sessions []int32
	leaves   []*node
	free     []int32
	// byName indexes the named nodes. Only control-plane calls look nodes
	// up by name, so it is built on the first lookup (names).
	byName   map[string]*node
	interior []*node
	nodes    []*node // by node id, for the shaper's release heap
	backlog  int
	inflight bool         // root's committed packet is on the wire
	shape    *pifo.Shaper // ceilings by node id; nil until the first one
	obs.Collector
}

type node struct {
	// The fields EnqueueLeaf, arrive, restart and resetPath touch come
	// first, ahead of the control plane's, so the packet path reads the
	// front of the node only.
	fifo     packet.FIFO    // leaves only
	hol      *packet.Packet // logical queue Q_n: the committed packet
	parent   *node
	childIdx int                 // this node's id within parent's scheduler
	session  int                 // leaf session id, -1 for interior
	act      *node               // paper's ActiveChild_n
	id       int                 // index in Tree.nodes, the shaper's key
	slot     int32               // leaf slot in Tree.leaves; leaves only
	busy     bool                // paper's Busy_n flag
	removed  bool                // detached by RemoveLeaf; its slots wait for the next AddLeaf
	abs      bool                // children carry absolute rates, not shares (NewFlat's root)
	named    bool                // indexed by name: named in the topology or by AddLeaf, or NewFlat's root
	ns       sched.NodeScheduler // interior nodes only

	name     string
	children []*node
	rate     float64
	share    float64 // service share φ relative to siblings (topo.Node.Share)
}

func (n *node) isLeaf() bool { return n.session >= 0 }

// NewNodeSpecFunc builds the per-node scheduler for the interior node
// described by tn with guaranteed rate r_n. Seeing the topology node lets
// the builder honor per-node policy annotations (tn.Policy, node names).
type NewNodeSpecFunc func(tn *topo.Node, rate float64) (sched.NodeScheduler, error)

// MaxSession is the largest session id a tree accepts. A tree keeps
// per-session state in tables indexed by session id, so an id costs memory
// in proportion to its value; the bound leaves room for every
// FEC-protectable class (ids up to 65535) and its default repair class.
// BuildSpec and AddLeaf refuse a larger id with errs.ErrBadTopology.
const MaxSession = 1<<17 - 1

// BuildSpec constructs an H-PFQ server over the given topology for a link
// of the given rate. The topology root must be an interior node. newNode
// is called once per interior node with that node's topo spec and
// guaranteed rate, and may fail (e.g. an unknown per-node policy name),
// aborting the build.
//
// The build is one depth-first walk (DESIGN.md S40). It validates each
// node as it builds it, computes each child's guaranteed rate top-down with
// topo.Rates' expression, numbers the nodes in preorder, and takes them all
// from one slab that a counting pre-walk sized. Errors keep the precedence
// of validating the whole topology first: a fault of the topology's own
// (topo.Validate's first, in preorder) outranks an out-of-range rate or a
// newNode failure met earlier in the walk.
func BuildSpec(t *topo.Node, linkRate float64, algo string, newNode NewNodeSpecFunc) (*Tree, error) {
	if t == nil || t.IsLeaf() || linkRate <= 0 {
		// Not buildable: a fault of the topology's own still comes first.
		if err := t.Validate(); err != nil {
			return nil, badTopology(err)
		}
		if t.IsLeaf() {
			return nil, fmt.Errorf("hier: %w: topology root must be an interior node", errs.ErrBadTopology)
		}
		return nil, fmt.Errorf("hier: invalid link rate %g", linkRate)
	}
	nodes, interior, maxSession := countNodes(t)
	// A session id outside [0, MaxSession] fails the walk: it sizes nothing.
	maxSession = min(max(maxSession, 0), MaxSession)
	tr := &Tree{
		algo:     algo,
		rate:     linkRate,
		sessions: make([]int32, maxSession+1),
		leaves:   make([]*node, 0, nodes-interior),
		interior: make([]*node, 0, interior),
		nodes:    make([]*node, 0, nodes),
	}
	b := builder{tr: tr, top: t, newNode: newNode, slab: make([]node, nodes), kids: make([]*node, nodes-1)}
	root, err := b.build(t, nil, 0, linkRate)
	if err != nil {
		return nil, err
	}
	tr.root = root
	tr.InitObs("H-"+algo, linkRate)
	tr.ReserveSessions(maxSession + 1)
	for _, n := range tr.leaves {
		tr.RegisterSession(n.session, n.rate)
	}
	return tr, nil
}

func badTopology(err error) error {
	return fmt.Errorf("hier: %w: %v", errs.ErrBadTopology, err)
}

// countNodes returns the number of nodes and of interior nodes in the
// topology and its largest leaf session id, skipping nil children (the
// walk refuses them before it needs their storage).
func countNodes(t *topo.Node) (nodes, interior, maxSession int) {
	if t.IsLeaf() {
		return 1, 0, t.Session
	}
	nodes, interior, maxSession = 1, 1, -1
	for _, c := range t.Children {
		if c != nil {
			n, i, s := countNodes(c)
			nodes, interior, maxSession = nodes+n, interior+i, max(maxSession, s)
		}
	}
	return nodes, interior, maxSession
}

// reserver is the optional presizing surface of a node scheduler
// (pifo.Node): room for children child ids up front.
type reserver interface{ Reserve(children int) }

// builder is the state of one BuildSpec walk. slab holds every node by id
// and kids every interior node's children, one exact-size run each; both
// were sized by countNodes and are never re-sliced past their length, so
// the walk allocates no node of its own.
type builder struct {
	tr      *Tree
	top     *topo.Node
	newNode NewNodeSpecFunc
	slab    []node
	kids    []*node
}

// build builds the subtree t as child idx of parent, with guaranteed rate
// rate, and returns its root.
func (b *builder) build(t *topo.Node, parent *node, idx int, rate float64) (*node, error) {
	if err := t.Check(); err != nil {
		return nil, badTopology(err)
	}
	tr := b.tr
	id := len(tr.nodes)
	// The slab is zeroed: set the fields one by one, so only the pointers
	// written pay a write barrier, not every pointer word of the node.
	n := &b.slab[id]
	n.id, n.childIdx, n.session = id, idx, t.Session
	n.name, n.named = t.Name, t.Name != ""
	n.parent = parent
	n.rate, n.share = rate, t.Share
	tr.nodes = append(tr.nodes, n)
	if t.IsLeaf() {
		if t.Session > MaxSession {
			return nil, b.fail(fmt.Errorf("hier: %w: leaf %q: session %d above %d", errs.ErrBadTopology, t.Name, t.Session, MaxSession))
		}
		// The leaf index is the duplicate-session set.
		if tr.sessions[t.Session] != 0 {
			return nil, b.fail(nil)
		}
		tr.addLeafSlot(n)
	} else {
		if n.name == "" {
			n.name = fmt.Sprintf("node#%d", len(tr.interior))
		}
		tr.interior = append(tr.interior, n)
		// Every child's rate needs the sibling sum, so the children's
		// shares are checked before the first child is built.
		var sum float64
		for _, c := range t.Children {
			if c == nil || !validShare(c.Share) {
				return nil, b.fail(nil)
			}
			sum += c.Share
		}
		ns, err := b.newNode(t, n.rate)
		if err != nil {
			return nil, b.fail(fmt.Errorf("hier: node %q: %w", n.name, err))
		}
		if r, ok := ns.(reserver); ok {
			r.Reserve(len(t.Children))
		}
		n.ns = ns
		k := len(t.Children)
		n.children, b.kids = b.kids[:k:k], b.kids[k:]
		for i, ct := range t.Children {
			r := rate * ct.Share / sum // topo.Rates' expression, bit for bit
			if !validShare(r) {
				return nil, b.fail(fmt.Errorf("hier: %w: node %q: guaranteed rate %g out of range", errs.ErrBadTopology, ct.Name, r))
			}
			c, err := b.build(ct, n, i, r)
			if err != nil {
				return nil, err
			}
			n.children[i] = c
			ns.AddChild(i, r)
		}
	}
	if t.Ceil > 0 {
		tr.setCeil(n, t.Ceil, 0)
	}
	return n, nil
}

// fail returns the error of a walk stopped at a fault: the topology's own
// first fault when it has one, else err (nil only where Validate must
// fail).
func (b *builder) fail(err error) error {
	if verr := b.top.Validate(); verr != nil {
		return badTopology(verr)
	}
	return err
}

// NewFlat builds a one-level H-PFQ server for a link of the given rate: a
// root running ns whose children are session leaves with absolute
// guaranteed rates. It starts empty; AddLeaf("", …) grafts a leaf whose
// share argument is its rate, and SetSessionRate, AddLeaf and RemoveLeaf
// change only the named leaf (the last one included). The root is the node
// named "" (SetNodePolicy, SetNodeCeil).
func NewFlat(linkRate float64, ns sched.NodeScheduler) *Tree {
	// The root's share is 1, as a topology root's: it owns the whole link.
	root := &node{rate: linkRate, share: 1, session: -1, ns: ns, abs: true, named: true}
	tr := &Tree{
		algo:     ns.Name(),
		rate:     linkRate,
		root:     root,
		interior: []*node{root},
		nodes:    []*node{root},
	}
	tr.InitObs(ns.Name(), linkRate)
	return tr
}

// Flat reports whether the tree is NewFlat's one-level server.
func (tr *Tree) Flat() bool { return tr.root.abs }

// New builds an H-PFQ server using the named one-level algorithm
// ("WF2Q+", "WFQ", "WF2Q", "SCFQ", "SFQ", "DRR", or any registered policy)
// at every node. Nodes whose topology spec names its own policy
// (topo.Node.Policy, e.g. from the ':policy' clause of topo.Parse) use that
// policy instead of algo.
func New(t *topo.Node, linkRate float64, algo string) (*Tree, error) {
	return BuildSpec(t, linkRate, algo, Resolver(algo, nil, nil))
}

// Resolver returns a node constructor implementing the public API's policy
// resolution order, most specific first: an explicit per-node factory keyed
// by topology node name (WithNodePolicy), the topology spec's own Policy
// annotation, the hierarchy-wide default factory (WithPolicy), and finally
// the named algorithm.
func Resolver(algo string, def *pifo.Factory, perNode map[string]pifo.Factory) NewNodeSpecFunc {
	return func(tn *topo.Node, rate float64) (sched.NodeScheduler, error) {
		if f, ok := perNode[tn.Name]; ok {
			return sched.NewPolicyNode(f, rate)
		}
		if tn.Policy != "" {
			return sched.NewNode(tn.Policy, rate)
		}
		if def != nil {
			return sched.NewPolicyNode(*def, rate)
		}
		return sched.NewNode(algo, rate)
	}
}

// EnableMetrics switches on metric accumulation for the tree and for every
// interior node scheduler.
func (tr *Tree) EnableMetrics() {
	tr.Collector.EnableMetrics()
	for _, n := range tr.interior {
		n.ns.EnableMetrics()
	}
}

// SetTracer installs the tracer on the tree and on every interior node,
// wrapping each node's stream so events carry the node's topology name
// rather than the bare algorithm name.
func (tr *Tree) SetTracer(t obs.Tracer) {
	tr.Collector.SetTracer(t)
	for _, n := range tr.interior {
		if t == nil || n.name == "" {
			n.ns.SetTracer(t) // NewFlat's root keeps its policy's name
		} else {
			n.ns.SetTracer(obs.Named(n.name, t))
		}
	}
}

// NodeSnapshots returns the reference-time metrics of every interior node
// scheduler, keyed by node name (topology names, or node#i for unnamed
// interior nodes). Interior counters are in the node's own clock: counts and
// depths of the one-packet logical queues, no delay or WFI statistics.
func (tr *Tree) NodeSnapshots() map[string]obs.Metrics {
	out := make(map[string]obs.Metrics, len(tr.interior))
	for _, n := range tr.interior {
		m := n.ns.Snapshot()
		m.Name = n.name + "/" + m.Name
		out[n.name] = m
	}
	return out
}

// Name identifies the hierarchy and its per-node algorithm; a flat tree is
// named after its root's current policy.
func (tr *Tree) Name() string {
	if tr.Flat() {
		return tr.root.ns.Name()
	}
	return "H-" + tr.algo
}

// Rate returns the link rate.
func (tr *Tree) Rate() float64 { return tr.rate }

// Backlog returns the number of queued packets (including a committed
// packet that is on the wire until the next Dequeue resets the path).
func (tr *Tree) Backlog() int { return tr.backlog }

// QueueLen returns the number of packets queued for a session.
func (tr *Tree) QueueLen(session int) int {
	leaf := tr.leaf(session)
	if leaf == nil {
		return 0
	}
	return leaf.fifo.Len()
}

// QueueBits returns the number of bits queued for a session.
func (tr *Tree) QueueBits(session int) float64 {
	leaf := tr.leaf(session)
	if leaf == nil {
		return 0
	}
	return leaf.fifo.Bits()
}

// SessionRate returns the guaranteed rate of a session leaf.
func (tr *Tree) SessionRate(session int) float64 {
	leaf := tr.leaf(session)
	if leaf == nil {
		return 0
	}
	return leaf.rate
}

// NodeRate returns the guaranteed rate of the named node, or 0.
func (tr *Tree) NodeRate(name string) float64 {
	n, ok := tr.names()[name]
	if !ok {
		return 0
	}
	return n.rate
}

// Sessions returns the ids of all session leaves in ascending order.
func (tr *Tree) Sessions() []int {
	out := make([]int, 0, len(tr.leaves)-len(tr.free))
	for id, s := range tr.sessions {
		if s != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Slot returns the slot of session's leaf, or -1 when the tree has no such
// session. A fresh tree numbers its leaves in preorder from 0, and AddLeaf
// takes the slot RemoveLeaf freed last before it adds one, so a table
// indexed by slot stays as large as the most leaves held at once.
func (tr *Tree) Slot(session int) int32 {
	if uint(session) >= uint(len(tr.sessions)) {
		return -1
	}
	return tr.sessions[session] - 1
}

// leaf returns session's leaf, or nil.
func (tr *Tree) leaf(session int) *node {
	if s := tr.Slot(session); s >= 0 {
		return tr.leaves[s]
	}
	return nil
}

// addLeafSlot gives leaf n a slot, the last one freed if any, and indexes
// its session.
func (tr *Tree) addLeafSlot(n *node) {
	if k := len(tr.free); k > 0 {
		n.slot = tr.free[k-1]
		tr.free = tr.free[:k-1]
		tr.leaves[n.slot] = n
	} else {
		n.slot = int32(len(tr.leaves))
		tr.leaves = append(tr.leaves, n)
	}
	if k := n.session + 1 - len(tr.sessions); k > 0 {
		tr.sessions = append(tr.sessions, make([]int32, k)...)
	}
	tr.sessions[n.session] = n.slot + 1
}

// names returns the name index, building it on the first call.
func (tr *Tree) names() map[string]*node {
	if tr.byName == nil {
		tr.byName = make(map[string]*node)
		tr.indexNames(tr.root)
	}
	return tr.byName
}

// indexNames indexes the live named nodes of n's subtree, each after its
// subtree (postorder), so of two nodes sharing a name the later wins.
func (tr *Tree) indexNames(n *node) {
	for _, c := range n.children {
		if !c.removed {
			tr.indexNames(c)
		}
	}
	if n.named {
		tr.byName[n.name] = n
	}
}

// Leaf is a handle on one session's leaf, resolved once by Tree.Leaf so a
// caller that enqueues many packets for the session skips the lookup. The
// zero Leaf names no session. A handle goes stale when its leaf is removed
// (RemoveLeaf), and a later AddLeaf may reuse the removed leaf's slot for
// another session, so a caller that can see a removal must resolve again.
type Leaf struct{ n *node }

// Leaf returns the handle on session's leaf; the zero Leaf when the tree
// has no such session.
func (tr *Tree) Leaf(session int) Leaf { return Leaf{tr.leaf(session)} }

// Session returns the session id of the handle's leaf.
func (l Leaf) Session() int { return l.n.session }

// Slot returns the handle's leaf slot (Tree.Slot).
func (l Leaf) Slot() int32 { return l.n.slot }

// Rate returns the guaranteed rate of the handle's leaf.
func (l Leaf) Rate() float64 { return l.n.rate }

// Name, Share and Parent return the handle's leaf's name and share and its
// parent's name, as Tree.Nodes reports them.
func (l Leaf) Name() string   { return l.n.name }
func (l Leaf) Share() float64 { return l.n.share }
func (l Leaf) Parent() string { return l.n.parent.name }

// EachLeaf calls fn with the handle on every live session leaf in slot
// order, which for a tree fresh from BuildSpec is the topology's preorder.
func (tr *Tree) EachLeaf(fn func(Leaf)) {
	for _, n := range tr.leaves {
		if n != nil {
			fn(Leaf{n})
		}
	}
}

// Enqueue delivers a packet to its session's leaf FIFO. A packet arriving
// to an empty queue becomes the leaf's logical head and triggers the
// paper's ARRIVE propagation. now is the wall-clock instant the ceiling
// checks on the way up use, and only those: the hierarchy's own clocks are
// reference-time driven.
func (tr *Tree) Enqueue(now float64, p *packet.Packet) {
	tr.EnqueueLeaf(now, tr.Leaf(p.Session), p)
}

// EnqueueLeaf is Enqueue into the leaf l, which the caller resolved with
// Leaf(p.Session). A zero or removed handle, or one on another session's
// leaf, panics: the packet has nowhere valid to go.
func (tr *Tree) EnqueueLeaf(now float64, l Leaf, p *packet.Packet) {
	leaf := l.n
	if leaf == nil || leaf.removed || leaf.session != p.Session {
		panic(fmt.Sprintf("hier: enqueue for unknown session %d", p.Session))
	}
	leaf.fifo.Push(p)
	tr.backlog++
	if leaf.fifo.Len() == 1 {
		leaf.hol = p
		tr.arrive(leaf, false, now)
	}
	tr.RecordEnqueue(now, p.Session, p.Length)
}

// arrive implements ARRIVE lines 5–9: push the backlogged child into its
// parent's scheduler; if the parent has no committed packet, restart it.
// Every push into a parent (here, restart, resetPath) first asks the
// shaper: a child whose ceiling is in deficit is held instead — the shaping
// transaction: the parent serves its other children until the release.
//
// The root alone commits lazily, when the link asks (Dequeue): a link that
// dequeues at once when idle sees the paper's order, and a server that
// enqueues a batch before its first dequeue (the data plane's pump) has the
// root choose among the whole batch rather than take its first packet.
func (tr *Tree) arrive(c *node, cont bool, now float64) {
	if tr.shape != nil && tr.shape.Hold(c.id, now) {
		return
	}
	n := c.parent
	n.ns.Push(c.childIdx, c.hol.Length, cont)
	if n.hol == nil && n != tr.root {
		tr.restart(n, now)
	}
}

// restart implements RESTART-NODE: the node commits its next packet by
// popping its scheduler (which performs the eligibility-constrained
// selection and advances V_n and T_n), then propagates upward into an
// uncommitted parent. Busy distinguishes a continuing node (just finished
// transmitting, S ← F) from a newly backlogged one (S ← max(F, V_parent)).
func (tr *Tree) restart(n *node, now float64) {
	if n.hol != nil {
		panic("hier: restart of committed node")
	}
	id, ok := n.ns.Pop()
	if ok {
		m := n.children[id]
		n.act = m
		n.hol = m.hol
		wasBusy := n.busy
		n.busy = true
		if n.parent != nil && (tr.shape == nil || !tr.shape.Hold(n.id, now)) {
			n.parent.ns.Push(n.childIdx, n.hol.Length, wasBusy)
			if n.parent.hol == nil && n.parent != tr.root {
				tr.restart(n.parent, now)
			}
		}
		return
	}
	n.act = nil
	n.busy = false
	if n.parent != nil && n.parent.hol == nil && n.parent != tr.root {
		tr.restart(n.parent, now)
	}
}

// Dequeue returns the next packet to transmit (the root's committed packet)
// or nil when the hierarchy is empty or everything backlogged is held by a
// ceiling. The previous packet's path is reset first (RESET-PATH), matching
// the paper's transmit-complete processing; then held nodes whose release
// time has come re-enter their parents, the root commits its next packet,
// and the departure is charged to every capped node on its path.
func (tr *Tree) Dequeue(now float64) *packet.Packet {
	if tr.inflight {
		tr.inflight = false
		tr.resetPath(now)
	}
	if tr.shape != nil {
		// Held nodes due by now re-enter as newly backlogged, S ← max(F, V):
		// no credit for the time held.
		for id, ok := tr.shape.Due(now); ok; id, ok = tr.shape.Due(now) {
			if c := tr.nodes[id]; c.parent != nil {
				tr.arrive(c, false, now)
			}
		}
	}
	if tr.root.hol == nil {
		tr.restart(tr.root, now)
		if tr.root.hol == nil {
			return nil
		}
	}
	p := tr.root.hol
	if tr.shape != nil {
		// The root has no parent to be held from: a capped root in deficit
		// holds the link itself.
		if tr.shape.Hold(tr.root.id, now) {
			return nil
		}
		for n := tr.root; n != nil; n = n.act {
			tr.shape.Charge(n.id, p.Length, now)
		}
	}
	tr.inflight = true
	tr.RecordDequeue(now, p.Session, p.Length)
	return p
}

// resetPath implements RESET-PATH(R): clear the logical queues along the
// active path top-down, advance the leaf FIFO, re-push the leaf's next head
// as a continuation, and recommit bottom-up.
func (tr *Tree) resetPath(now float64) {
	n := tr.root
	for !n.isLeaf() {
		n.hol = nil
		m := n.act
		n.act = nil
		if m == nil {
			panic("hier: reset of path without active child")
		}
		n = m
	}
	n.hol = nil
	tr.backlog--
	n.fifo.Pop()
	if !n.fifo.Empty() {
		n.hol = n.fifo.Head()
		if tr.shape == nil || !tr.shape.Hold(n.id, now) {
			n.parent.ns.Push(n.childIdx, n.hol.Length, true)
		}
	}
	if n.parent != tr.root {
		tr.restart(n.parent, now)
	}
}
