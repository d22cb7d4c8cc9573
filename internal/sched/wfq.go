package sched

import (
	"hpfq/internal/fluid"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/pq"
)

// WFQ is Weighted Fair Queueing (PGPS) [Demers/Keshav/Shenker; Parekh &
// Gallager], the best-known packet approximation of GPS (§3.1): packets are
// stamped with virtual start/finish times from the exact GPS virtual time
// function (eq. 4–7) at arrival, and the server always transmits the queued
// packet with the smallest virtual finish time — the "Smallest virtual
// Finish time First" (SFF) policy.
//
// WFQ's delay bound is within one packet time of GPS, but its Worst-case
// Fair Index grows linearly with the number of sessions (§3.1–3.2): it can
// run up to N/2 packets ahead of GPS for one session and then starve it.
// This is the deficiency H-WFQ inherits and WF²Q/WF²Q+ remove.
type WFQ struct {
	clock   *fluid.Clock
	queues  []stampQueue
	hol     *pq.Heap // session → virtual finish of head packet
	backlog int
	obs.Collector
}

// NewWFQ returns a WFQ server for a link of the given rate in bits/sec.
func NewWFQ(rate float64) *WFQ {
	w := &WFQ{clock: fluid.NewClock(rate), hol: pq.NewHeap(8)}
	w.InitObs("WFQ", rate)
	return w
}

// Name identifies the algorithm.
func (w *WFQ) Name() string { return "WFQ" }

// AddSession registers session id with guaranteed rate in bits/sec.
func (w *WFQ) AddSession(id int, rate float64) {
	w.clock.AddSession(id, rate)
	for len(w.queues) <= id {
		w.queues = append(w.queues, stampQueue{})
	}
	w.RegisterSession(id, rate)
}

// Enqueue stamps the packet against the GPS fluid system at time now and
// queues it.
func (w *WFQ) Enqueue(now float64, p *packet.Packet) {
	w.clock.Advance(now)
	s, f := w.clock.Stamp(p.Session, p.Length)
	q := &w.queues[p.Session]
	q.Push(stamped{p: p, s: s, f: f})
	w.backlog++
	if q.Len() == 1 {
		w.hol.Push(p.Session, f)
	}
	w.RecordEnqueue(now, p.Session, p.Length)
}

// Dequeue returns the queued packet with the smallest GPS virtual finish
// time (SFF), or nil when empty. Within a session virtual finish times are
// non-decreasing, so the head-of-line heap suffices.
func (w *WFQ) Dequeue(now float64) *packet.Packet {
	if w.hol.Empty() {
		return nil
	}
	w.clock.Advance(now)
	id := w.hol.MinID()
	w.hol.Remove(id)
	q := &w.queues[id]
	st := q.Pop()
	w.backlog--
	if !q.Empty() {
		w.hol.Push(id, q.Head().f)
	}
	w.RecordDequeueVT(now, id, st.p.Length, st.s, st.f, w.clock.V())
	return st.p
}

// Backlog returns the number of queued packets.
func (w *WFQ) Backlog() int { return w.backlog }

// VirtualTime exposes the GPS virtual time (for tests).
func (w *WFQ) VirtualTime(now float64) float64 {
	w.clock.Advance(now)
	return w.clock.V()
}

// WF2Q is Worst-case Fair Weighted Fair Queueing [Bennett & Zhang,
// INFOCOM'96] (§3.3): identical GPS stamping to WFQ, but the server only
// considers packets that have started service in the fluid system — virtual
// start time S ≤ V_GPS(now) — and picks the smallest virtual finish among
// them ("Smallest Eligible virtual Finish time First", SEFF). Theorem 3:
// WF²Q is work-conserving, worst-case fair with
// α_i = L_i,max + (L_max−L_i,max)·r_i/r, and matches WFQ's delay bound.
// Its cost is the O(N) worst-case GPS clock, which WF²Q+ replaces.
type WF2Q struct {
	clock   *fluid.Clock
	queues  []stampQueue
	elig    *pq.Heap // eligible sessions (head S <= V), by head F
	inel    *pq.Heap // ineligible sessions, by head S
	backlog int
	obs.Collector
}

// NewWF2Q returns a WF²Q server for a link of the given rate in bits/sec.
func NewWF2Q(rate float64) *WF2Q {
	w := &WF2Q{clock: fluid.NewClock(rate), elig: pq.NewHeap(8), inel: pq.NewHeap(8)}
	w.InitObs("WF2Q", rate)
	return w
}

// Name identifies the algorithm.
func (w *WF2Q) Name() string { return "WF2Q" }

// AddSession registers session id with guaranteed rate in bits/sec.
func (w *WF2Q) AddSession(id int, rate float64) {
	w.clock.AddSession(id, rate)
	for len(w.queues) <= id {
		w.queues = append(w.queues, stampQueue{})
	}
	w.RegisterSession(id, rate)
}

// Enqueue stamps the packet against the GPS fluid system and queues it.
func (w *WF2Q) Enqueue(now float64, p *packet.Packet) {
	w.clock.Advance(now)
	s, f := w.clock.Stamp(p.Session, p.Length)
	q := &w.queues[p.Session]
	q.Push(stamped{p: p, s: s, f: f})
	w.backlog++
	if q.Len() == 1 {
		w.insertHOL(p.Session, s, f)
	}
	w.RecordEnqueue(now, p.Session, p.Length)
}

func (w *WF2Q) insertHOL(id int, s, f float64) {
	if s <= w.clock.V()+eligEps {
		w.elig.Push(id, f)
	} else {
		w.inel.Push(id, s)
	}
}

// Dequeue returns the eligible packet with the smallest virtual finish time
// (SEFF), or nil when empty.
func (w *WF2Q) Dequeue(now float64) *packet.Packet {
	if w.backlog == 0 {
		return nil
	}
	w.clock.Advance(now)
	v := w.clock.V()
	for !w.inel.Empty() && w.inel.MinKey() <= v+eligEps {
		id, _, _ := w.inel.Pop()
		w.elig.Push(id, w.queues[id].Head().f)
	}
	var id int
	if !w.elig.Empty() {
		id = w.elig.MinID()
		w.elig.Remove(id)
	} else {
		// Within a busy period at least one head packet has started GPS
		// service, so this path is float-noise insurance only: fall back to
		// the smallest virtual start to stay work-conserving.
		id = w.inel.MinID()
		w.inel.Remove(id)
	}
	q := &w.queues[id]
	st := q.Pop()
	w.backlog--
	if !q.Empty() {
		h := q.Head()
		w.insertHOL(id, h.s, h.f)
	}
	w.RecordDequeueVT(now, id, st.p.Length, st.s, st.f, w.clock.V())
	return st.p
}

// Backlog returns the number of queued packets.
func (w *WF2Q) Backlog() int { return w.backlog }

// VirtualTime exposes the GPS virtual time (for tests).
func (w *WF2Q) VirtualTime(now float64) float64 {
	w.clock.Advance(now)
	return w.clock.V()
}
