// Package sched implements the one-level Packet Fair Queueing baselines the
// paper analyzes and compares against (§3, §6): WFQ (PGPS) and WF²Q driven
// by the exact GPS virtual time function, SCFQ, SFQ, DRR and FIFO — plus
// per-node variants of each for use inside an H-PFQ hierarchy
// (internal/hier) and a registry keyed by algorithm name.
//
// The registry is the pifo policy registry (internal/pifo): every entry,
// WF²Q+ — the paper's primary contribution — among them, has a flat and a
// node form. The seed implementations here stay as the golden references
// the equivalence tests compare against.
package sched

import (
	"fmt"

	"hpfq/internal/errs"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
)

// eligEps absorbs float64 summation noise when comparing virtual start
// times against the system virtual time for eligibility (SEFF policy).
// Virtual times are in seconds; 1 ns of virtual slack is far below any
// packet transmission time simulated here.
const eligEps = 1e-9

// Scheduler is a standalone packet server: per-session FIFO queues and a
// service discipline. now is the current real time in seconds; algorithms
// whose virtual clocks are self-contained ignore it, the GPS-clock driven
// ones (WFQ, WF²Q) use it to advance the fluid system.
type Scheduler interface {
	// AddSession registers a session and its guaranteed rate in bits/sec.
	AddSession(id int, rate float64)
	// Enqueue accepts a packet at time now.
	Enqueue(now float64, p *packet.Packet)
	// Dequeue returns the next packet to transmit, or nil when empty.
	Dequeue(now float64) *packet.Packet
	// Backlog returns the number of queued packets.
	Backlog() int
	// Name identifies the algorithm.
	Name() string
	// Observable is the metrics/tracing surface every scheduler carries.
	obs.Observable
}

// NodeScheduler is a PFQ server node inside an H-PFQ hierarchy: it
// schedules the one-packet logical queues of its children (paper §4).
// Its virtual clock advances in Reference Time units T_n = W_n(0,t)/r_n
// (§4.1): each Pop accounts L/r_n of normalized work.
type NodeScheduler interface {
	// AddChild registers a child and its guaranteed rate in bits/sec.
	AddChild(id int, rate float64)
	// Push marks child id backlogged with a head packet of the given
	// length. cont is true when the child was just served and remains
	// backlogged (a continuation, eq. 28 first case); algorithms that
	// stamp with eq. 6 semantics may ignore it.
	Push(id int, length float64, cont bool)
	// Pop selects and commits the next child to serve, advancing the
	// node's virtual clock. The child leaves the backlogged set until the
	// next Push. ok is false when no child is backlogged.
	Pop() (id int, ok bool)
	// Backlogged reports whether any child is backlogged.
	Backlogged() bool
	// Name identifies the algorithm.
	Name() string
	// Observable is the metrics/tracing surface every node carries. Node
	// collectors run in the node's reference time: counts, depths, and
	// virtual-time trace events, but no delay/WFI statistics.
	obs.Observable
}

// NodeReconfigurer is the optional live-mutation surface of a NodeScheduler;
// every registry node form (all PIFO-hosted) implements it.
type NodeReconfigurer interface {
	SetChildRate(id int, rate float64) error
	RemoveChild(id int) error
	SetNodeRate(rate float64) error
	SetPolicy(f pifo.Factory) error
}

// Algorithms returns the registry names, sorted.
func Algorithms() []string { return pifo.Names() }

// New returns a standalone scheduler by algorithm name ("WF2Q+", "WFQ",
// "WF2Q", "SCFQ", "SFQ", "DRR", "FIFO", "SP", "EDF", "SRPT", "LSTF").
func New(name string, rate float64) (Scheduler, error) {
	f, ok := pifo.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sched: %w: %q (have %v)", errs.ErrUnknownAlgorithm, name, Algorithms())
	}
	return NewPolicy(f, rate)
}

// NewNode returns a hierarchical server node by algorithm name.
func NewNode(name string, rate float64) (NodeScheduler, error) {
	f, ok := pifo.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sched: %w: %q (have %v)", errs.ErrUnknownAlgorithm, name, Algorithms())
	}
	return NewPolicyNode(f, rate)
}

// NewPolicy returns a standalone scheduler hosting an explicit pifo policy
// — the WithPolicy path of the public API, bypassing the name registry.
func NewPolicy(f pifo.Factory, rate float64) (Scheduler, error) {
	if f.Flat == nil {
		return nil, fmt.Errorf("sched: %w: policy %q", errs.ErrNoFlatForm, f.Name)
	}
	return pifo.NewSched(f, rate), nil
}

// NewPolicyNode returns a hierarchical server node hosting an explicit pifo
// policy — the WithPolicy/WithNodePolicy path of the public API.
func NewPolicyNode(f pifo.Factory, rate float64) (NodeScheduler, error) {
	if f.Node == nil {
		return nil, fmt.Errorf("sched: %w: policy %q", errs.ErrNoNodeForm, f.Name)
	}
	return pifo.NewNode(f, rate), nil
}

// stamped couples a queued packet with its virtual times.
type stamped struct {
	p    *packet.Packet
	s, f float64
}

// stampQueue is a FIFO of stamped packets.
type stampQueue struct {
	buf  []stamped
	head int
}

func (q *stampQueue) Len() int       { return len(q.buf) - q.head }
func (q *stampQueue) Empty() bool    { return q.Len() == 0 }
func (q *stampQueue) Push(s stamped) { q.buf = append(q.buf, s) }
func (q *stampQueue) Head() stamped  { return q.buf[q.head] }
func (q *stampQueue) Pop() stamped {
	s := q.buf[q.head]
	q.buf[q.head] = stamped{}
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return s
}
