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
// Alcoz et al.). FIFO, strict priority, EDF, SRPT and LSTF are one-line
// rank functions.
//
// A Policy supplies the per-flow virtual-time state hooks (Arrive, Commit,
// V, and the optional Ticker/Floorer/Deferrer extensions); the two generic
// hosts — Sched (a standalone sched.Scheduler) and Node (a hierarchical
// sched.NodeScheduler for internal/hier) — own the flow queues, the PIFO
// itself, and the observability surface. A Node running WF²Q+ does that
// policy's arithmetic inline instead (node.go). The hosts reproduce the
// seed implementations' behavior exactly (departure order and virtual-time
// traces); internal/sched and internal/hier pin that with golden
// equivalence tests.
package pifo

import "slices"

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

// bound is a policy bound to its PIFO, with the policy's optional
// extensions resolved once because an interface type assertion costs an
// itab lookup, too hot for the per-packet path.
type bound struct {
	pol   Policy
	floor Floorer
	defr  Deferrer
}

// bindPolicy resolves pol's optional extensions.
func bindPolicy(pol Policy) bound {
	b := bound{pol: pol}
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

// slot is one flow's record (a node's child): its guaranteed rate, its
// head-of-queue length and stamp, and whether it is defined and queued.
// Everything a Push or Pop reads or writes per flow is here, in one 64-byte
// record, and the heaps hold slot ids. WF²Q+'s inline node path keeps the
// flow's last virtual finish tag in st.F between its stamps.
type slot struct {
	st      Stamp
	length  float64
	rate    float64
	defined bool
	queued  bool
}

// item is one heap entry: a slot id under its key, with the heap's own
// insertion sequence number breaking key ties first in, first out.
type item struct {
	key float64
	seq uint64
	id  int32
}

// heap is a binary min-heap of slot ids ordered by (key, seq). The order is
// total (each push takes a fresh seq), so the pop sequence depends only on
// the keys and the push order, never on the heap's shape.
type heap struct {
	items []item
	seq   uint64
}

func (h *heap) empty() bool     { return len(h.items) == 0 }
func (h *heap) minKey() float64 { return h.items[0].key }

func (a item) less(b item) bool { return a.key < b.key || a.key == b.key && a.seq < b.seq }

func (h *heap) push(id int32, key float64) {
	h.seq++
	it := item{key: key, seq: h.seq, id: id}
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(h.items[p]) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = it
}

func (h *heap) pop() int32 {
	top := h.items[0].id
	last := len(h.items) - 1
	it := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && h.items[r].less(h.items[c]) {
				c = r
			}
			if !h.items[c].less(it) {
				break
			}
			h.items[i] = h.items[c]
			i = c
		}
		h.items[i] = it
	}
	return top
}

// queue is the PIFO: at most one entry per flow (the flow's head-of-queue
// packet, in its slot), ordered by rank, with gated entries parked on their
// eligibility key until the policy clock reaches it. Ties on either key
// break first in, first out by each heap's own insertion order, matching
// the seed schedulers' heaps.
//
// A monotone queue replaces the heaps with a deque: when every rank lands
// strictly below the current front or at/above the current back — as DRR's
// round counters do — rank order degenerates to insertion order at the two
// ends and every operation is O(1) ("Everything Matters in Programmable
// Packet Scheduling", Alcoz et al.). Gated entries are not supported in
// this mode.
type queue struct {
	slots  []slot
	ready  heap // eligible entries, keyed by rank
	parked heap // gated entries, keyed by eligibility
	count  int
	// Monotone deque state: slot ids in rank order in a ring buffer, the
	// smallest rank at head.
	monotone bool
	ring     []int32
	head, n  int
}

// reset empties the PIFO, keeping the slots, and sets its mode.
func (q *queue) reset(monotone bool) {
	q.ready.items, q.parked.items = q.ready.items[:0], q.parked.items[:0]
	q.ready.seq, q.parked.seq = 0, 0
	q.count, q.head, q.n = 0, 0, 0
	q.monotone = monotone
	if monotone && q.ring == nil {
		q.ring = make([]int32, 4)
	}
}

// grow extends the slot table to hold id, starting at eight slots so a
// node's first children take one allocation.
func (q *queue) grow(id int) {
	if id < len(q.slots) {
		return
	}
	if id >= cap(q.slots) {
		q.slots = slices.Grow(q.slots, max(id+1, 8)-len(q.slots))
	}
	q.slots = q.slots[:id+1]
}

// insert enters slot id, whose stamp is set, into the PIFO. v is the
// policy's current virtual time: a gated entry whose eligibility key is
// still ahead of v is parked, everything else enters the ready set.
func (q *queue) insert(id int, v float64) {
	q.count++
	st := &q.slots[id].st
	if q.monotone {
		q.pushMonotone(int32(id), st)
		return
	}
	if st.Gated && st.Elig > v+Eps {
		q.parked.push(int32(id), st.Elig)
	} else {
		q.ready.push(int32(id), st.Rank)
	}
}

// pushMonotone places id at the deque end its rank selects. FIFO tie-break
// at the back matches the heaps' sequence-number ordering; front ranks are
// strictly decreasing by construction so no tie arises there.
func (q *queue) pushMonotone(id int32, st *Stamp) {
	if st.Gated {
		panic("pifo: gated entry in monotone queue")
	}
	switch {
	case q.n == 0 || st.Rank >= q.slots[q.ring[(q.head+q.n-1)%len(q.ring)]].st.Rank:
		if q.n == len(q.ring) {
			q.ringGrow()
		}
		q.ring[(q.head+q.n)%len(q.ring)] = id
		q.n++
	case st.Rank < q.slots[q.ring[q.head]].st.Rank:
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

func (q *queue) ringGrow() {
	buf := make([]int32, 2*len(q.ring)+4)
	for i := 0; i < q.n; i++ {
		buf[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring, q.head = buf, 0
}

// migrate moves every parked entry whose eligibility key has been reached
// (Elig <= v+Eps) into the ready set, in eligibility order — the exact
// migration loop of the seed SEFF schedulers.
func (q *queue) migrate(v float64) {
	for !q.parked.empty() && q.parked.minKey() <= v+Eps {
		id := q.parked.pop()
		q.ready.push(id, q.slots[id].st.Rank)
	}
}

// settle runs a policy's eq. 27 floor (when it has one) and the migration
// before a selection; the monotone queue parks nothing.
func (q *queue) settle(b *bound) {
	if q.parked.empty() {
		return
	}
	if b.floor != nil {
		q.migrate(b.floor.FloorV(q.parked.minKey(), !q.ready.empty()))
	} else {
		q.migrate(b.pol.V())
	}
}

// pop removes and returns the smallest-rank ready entry. When nothing is
// ready it falls back to the smallest parked eligibility key — float-noise
// insurance to stay work-conserving, mirroring the seed WF²Q fallback; a
// policy with an eq. 27 floor never reaches it.
func (q *queue) pop() int {
	if q.count == 0 {
		panic("pifo: pop from empty queue")
	}
	q.count--
	switch {
	case q.monotone:
		id := q.ring[q.head]
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		return int(id)
	case !q.ready.empty():
		return int(q.ready.pop())
	default:
		return int(q.parked.pop())
	}
}

// popDeferring is pop plus the Deferrer loop: a flow its policy refuses
// (DRR's deficit check) re-enters the ready set under its new rank and the
// next candidate is popped.
func (q *queue) popDeferring(b *bound) int {
	id := q.pop()
	if b.defr == nil {
		return id
	}
	for {
		sl := &q.slots[id]
		rank, deferred := b.defr.Defer(id, sl.length)
		if !deferred {
			return id
		}
		sl.st.Rank, sl.st.Gated = rank, false
		q.count++
		if q.monotone {
			q.pushMonotone(int32(id), &sl.st)
		} else {
			q.ready.push(int32(id), rank)
		}
		id = q.pop()
	}
}
