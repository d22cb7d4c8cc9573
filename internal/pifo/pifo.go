// Package pifo is the programmable scheduler substrate: one push-in-first-out
// priority queue parameterized by a rank function, hosting every packet fair
// queueing discipline in the repository plus the deadline/priority policies
// the substrate makes nearly free.
//
// The model follows Sivaraman et al., "Programmable Packet Scheduling at Line
// Rate" (SIGCOMM'16): a PIFO is a priority queue that packets are pushed into
// with a rank computed on arrival and popped from in rank order. The PFQ
// family of the paper (WF²Q+, WFQ, WF²Q, SCFQ, SFQ) maps onto it directly —
// the rank is the virtual finish (or start) tag — with one extension needed
// for the shaped disciplines: an eligibility predicate (WF²Q's SEFF policy
// parks a flow whose virtual start time is ahead of the system virtual time).
// DRR maps through a monotone round counter as the rank plus a deficit check
// at pop time ("Everything Matters in Programmable Packet Scheduling",
// Alcoz et al.). Strict priority, EDF, SRPT and LSTF are one-line rank
// functions.
//
// A Policy supplies the per-flow virtual-time state hooks (Arrive, Commit,
// V, and the optional Ticker/Floorer/Deferrer extensions); the two generic
// hosts — Sched (a standalone sched.Scheduler) and Node (a hierarchical
// sched.NodeScheduler for internal/hier) — own the flow queues, the PIFO
// itself, and the observability surface. The hosts reproduce the seed
// implementations' behavior exactly (departure order and virtual-time
// traces); internal/sched pins that with golden equivalence tests.
package pifo

import (
	"hpfq/internal/pq"
)

// Eps absorbs float64 summation noise when comparing virtual start times
// against the system virtual time for eligibility (SEFF). Virtual times are
// in seconds; 1 ns of virtual slack is far below any packet transmission
// time simulated here. It equals the seed schedulers' eligibility epsilon.
const Eps = 1e-9

// Stamp is one scheduling decision for a flow's head-of-queue packet: the
// PIFO rank ordering service, the eligibility key gating it, and the virtual
// start/finish pair recorded in traces.
type Stamp struct {
	S, F  float64 // virtual start/finish tags (zero for tagless policies)
	Rank  float64 // PIFO rank: smallest served first, FIFO tie-break
	Elig  float64 // eligibility key; the entry is parked until V >= Elig
	Gated bool    // true when the entry must wait for eligibility
}

// Policy is a scheduling discipline expressed against the PIFO substrate:
// a rank function plus per-flow virtual-time state. The hosts call AddFlow
// once per flow, Arrive for every packet that needs a stamp, and Commit for
// every packet entering service.
type Policy interface {
	// AddFlow registers flow id with its guaranteed rate in bits/sec.
	AddFlow(id int, rate float64)
	// Arrive stamps a packet of the given length for flow id. now is the
	// host's clock: real arrival time in the flat host, the policy's own
	// virtual time in the node host. cont is true when the flow was just
	// served and remains backlogged (a continuation, paper eq. 28 first
	// case); it is always false in the flat host's arrival-stamped mode.
	// Arrive must not advance V: the hosts cache the virtual time across it
	// (only Tick, FloorV and Commit may move the clock).
	Arrive(now float64, id int, length float64, cont bool) Stamp
	// Commit accounts the stamped packet entering service, advancing the
	// policy's virtual clock, and returns the advanced clock (equal to a
	// subsequent V call — returned directly because the hosts always need
	// it and interface dispatch is hot). remaining is the host's backlog
	// after this service (packets in the flat host, flows in the node
	// host); SFQ uses it for its end-of-busy-period virtual time jump.
	Commit(id int, length float64, st Stamp, remaining int) float64
	// V is the policy's virtual time: the clock eligibility keys are
	// measured against, and the node host's trace time base.
	V() float64
}

// Ticker is the optional Policy extension for disciplines driven by real
// time (the exact-GPS-clock WFQ and WF²Q): the flat host calls Tick with
// the wall clock before stamping or popping. The node host never ticks —
// hierarchy nodes advance in reference time T_n = W_n/r_n only.
type Ticker interface {
	Tick(now float64)
}

// bound is a policy bound to its PIFO: the queue its factory's ranks call
// for (NewMonotoneQueue when Monotone) and the policy's optional
// extensions, resolved once because an interface type assertion costs an
// itab lookup, too hot for the per-packet path.
type bound struct {
	pol   Policy
	q     *Queue
	floor Floorer
	defr  Deferrer
}

// bind binds pol, built by f, to a fresh PIFO sized for n entries.
func bind(f Factory, pol Policy, n int) bound {
	b := bound{pol: pol}
	if f.Monotone {
		b.q = NewMonotoneQueue(n)
	} else {
		b.q = NewQueue(n)
	}
	b.floor, _ = pol.(Floorer)
	b.defr, _ = pol.(Deferrer)
	return b
}

// Floorer is the optional Policy extension for WF²Q+'s virtual time floor
// (paper eq. 27's min-term): before selecting, when no entry is eligible,
// the virtual time jumps to the smallest parked virtual start so the server
// stays work-conserving. The hosts call FloorV only when the parked set is
// non-empty; it returns the (possibly floored) clock so the migration that
// follows needs no separate V read.
type Floorer interface {
	FloorV(minParkedStart float64, haveEligible bool) float64
}

// Deferrer is the optional Policy extension for disciplines that may refuse
// the rank-order winner at pop time (DRR's deficit check): returning
// defer=true sends the flow back into the PIFO with the new rank (its next
// round position) and the host pops the next candidate. Like Arrive, Defer
// must not advance V.
type Deferrer interface {
	Defer(id int, length float64) (newRank float64, deferred bool)
}

// entry is the per-flow head-of-queue record inside the Queue.
type entry struct {
	length float64
	st     Stamp
}

// Queue is the PIFO: at most one entry per flow (the flow's head-of-queue
// packet), ordered by rank, with gated entries parked on their eligibility
// key until the policy clock reaches it. Ties on either key break FIFO by
// insertion order (pq.Heap's sequence numbers), matching the seed
// schedulers' heaps.
//
// A monotone Queue (NewMonotoneQueue) replaces the heaps with a deque: when
// every rank lands strictly below the current front or at/above the current
// back — as DRR's round counters do — rank order degenerates to insertion
// order at the two ends and every operation is O(1) ("Everything Matters in
// Programmable Packet Scheduling", Alcoz et al.). Gated entries are not
// supported in this mode.
type Queue struct {
	ready   *pq.Heap[float64] // eligible entries, keyed by rank
	parked  *pq.Heap[float64] // gated entries, keyed by eligibility
	entries []entry
	count   int
	// Monotone deque state: flow ids in rank order in a ring buffer, the
	// smallest rank at head.
	monotone bool
	ring     []int
	head, n  int
}

// NewQueue returns an empty PIFO sized for n flows.
func NewQueue(n int) *Queue {
	return &Queue{ready: pq.NewHeap[float64](n), parked: pq.NewHeap[float64](n)}
}

// NewMonotoneQueue returns an empty PIFO restricted to strictly monotone
// ranks (see Queue). Push panics if a rank falls strictly inside the current
// rank range or the stamp is gated.
func NewMonotoneQueue(n int) *Queue {
	return &Queue{monotone: true, ring: make([]int, n)}
}

// Len returns the number of queued entries (backlogged flows).
func (q *Queue) Len() int { return q.count }

// Empty reports whether no flow is queued.
func (q *Queue) Empty() bool { return q.count == 0 }

// Grow pre-sizes the per-flow entry table for flow id, keeping the hot Push
// path free of growth checks beyond a bounds test.
func (q *Queue) Grow(id int) {
	for len(q.entries) <= id {
		q.entries = append(q.entries, entry{})
	}
}

// Push inserts flow id's head-of-queue entry. v is the policy's current
// virtual time: a gated entry whose eligibility key is still ahead of v is
// parked, everything else enters the ready set.
func (q *Queue) Push(id int, length float64, st Stamp, v float64) {
	if id >= len(q.entries) {
		q.Grow(id)
	}
	q.entries[id] = entry{length: length, st: st}
	q.count++
	if q.monotone {
		q.pushMonotone(id, st)
		return
	}
	if st.Gated && st.Elig > v+Eps {
		q.parked.Push(id, st.Elig)
	} else {
		q.ready.Push(id, st.Rank)
	}
}

// pushMonotone places id at the deque end its rank selects. FIFO tie-break
// at the back matches the heaps' sequence-number ordering; front ranks are
// strictly decreasing by construction so no tie arises there.
func (q *Queue) pushMonotone(id int, st Stamp) {
	if st.Gated {
		panic("pifo: gated entry in monotone queue")
	}
	switch {
	case q.n == 0 || st.Rank >= q.entries[q.ring[(q.head+q.n-1)%len(q.ring)]].st.Rank:
		if q.n == len(q.ring) {
			q.ringGrow()
		}
		q.ring[(q.head+q.n)%len(q.ring)] = id
		q.n++
	case st.Rank < q.entries[q.ring[q.head]].st.Rank:
		if q.n == len(q.ring) {
			q.ringGrow()
		}
		q.head = (q.head - 1 + len(q.ring)) % len(q.ring)
		q.ring[q.head] = id
		q.n++
	default:
		panic("pifo: non-monotone rank in monotone queue")
	}
}

func (q *Queue) ringGrow() {
	buf := make([]int, 2*len(q.ring)+4)
	for i := 0; i < q.n; i++ {
		buf[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring, q.head = buf, 0
}

// MinParked returns the smallest parked eligibility key.
func (q *Queue) MinParked() (key float64, ok bool) {
	if q.monotone || q.parked.Empty() {
		return 0, false
	}
	return q.parked.MinKey(), true
}

// HaveReady reports whether any entry is immediately serviceable.
func (q *Queue) HaveReady() bool {
	if q.monotone {
		return q.n > 0
	}
	return !q.ready.Empty()
}

// Migrate moves every parked entry whose eligibility key has been reached
// (Elig <= v+Eps) into the ready set, in eligibility order — the exact
// migration loop of the seed SEFF schedulers.
func (q *Queue) Migrate(v float64) {
	if q.monotone {
		return
	}
	for !q.parked.Empty() && q.parked.MinKey() <= v+Eps {
		id, _, _ := q.parked.Pop()
		q.ready.Push(id, q.entries[id].st.Rank)
	}
}

// Pop removes and returns the smallest-rank ready entry. When nothing is
// ready it falls back to the smallest parked eligibility key — float-noise
// insurance to stay work-conserving, mirroring the seed WF²Q fallback; a
// policy with a Floorer never reaches it.
//
// The returned stamp points into the queue's entry table and stays valid
// only until the next Push or Reinsert for the same flow; callers copy any
// field they need past that point.
func (q *Queue) Pop() (id int, length float64, st *Stamp) {
	if q.count == 0 {
		panic("pifo: pop from empty queue")
	}
	if q.monotone {
		id = q.ring[q.head]
		q.head = (q.head + 1) % len(q.ring)
		q.n--
	} else if !q.ready.Empty() {
		id, _, _ = q.ready.Pop()
	} else {
		id, _, _ = q.parked.Pop()
	}
	q.count--
	e := &q.entries[id]
	return id, e.length, &e.st
}

// Reinsert returns a just-popped entry to the ready set under a new rank —
// the Deferrer path (DRR moving an exhausted flow to the round tail).
func (q *Queue) Reinsert(id int, length float64, st Stamp) {
	q.entries[id] = entry{length: length, st: st}
	q.count++
	if q.monotone {
		q.pushMonotone(id, st)
		return
	}
	q.ready.Push(id, st.Rank)
}
