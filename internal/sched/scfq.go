package sched

import (
	"fmt"
	"math"

	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/pq"
)

// SCFQ is Self-Clocked Fair Queueing [Golestani, INFOCOM'94] (§6): instead
// of emulating the GPS fluid system, the virtual time is read directly from
// the packet system as the service tag of the packet currently in service.
// Arriving packets are tagged F^k = max(F^{k-1}, v(a)) + L/r_i and served
// smallest-tag first. The clock costs O(1), but the virtual time can stall
// (slope 0), so SCFQ's delay bound and WFI both grow with the number of
// sessions — the paper's motivating example of a cheap clock that is too
// inaccurate for hierarchical composition (§3.4).
type SCFQ struct {
	rates   []float64
	lastF   []float64
	v       float64 // finish tag of the packet in service
	queues  []stampQueue
	hol     *pq.Heap // session → head finish tag
	backlog int
	obs.Collector
}

// NewSCFQ returns an SCFQ server. The link rate is accepted for interface
// uniformity; SCFQ's tags depend only on session rates.
func NewSCFQ(rate float64) *SCFQ {
	s := &SCFQ{hol: pq.NewHeap(8)}
	s.InitObs("SCFQ", rate)
	return s
}

// Name identifies the algorithm.
func (s *SCFQ) Name() string { return "SCFQ" }

// AddSession registers session id with guaranteed rate in bits/sec.
func (s *SCFQ) AddSession(id int, rate float64) {
	if id < 0 {
		panic("sched: negative session id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("sched: invalid session rate %g", rate))
	}
	for len(s.rates) <= id {
		s.rates = append(s.rates, 0)
		s.lastF = append(s.lastF, 0)
		s.queues = append(s.queues, stampQueue{})
	}
	if s.rates[id] != 0 {
		panic(fmt.Sprintf("sched: duplicate session id %d", id))
	}
	s.rates[id] = rate
	s.RegisterSession(id, rate)
}

// Enqueue tags the packet with its self-clocked finish time and queues it.
func (s *SCFQ) Enqueue(now float64, p *packet.Packet) {
	f := math.Max(s.lastF[p.Session], s.v) + p.Length/s.rates[p.Session]
	s.lastF[p.Session] = f
	q := &s.queues[p.Session]
	q.Push(stamped{p: p, f: f})
	s.backlog++
	if q.Len() == 1 {
		s.hol.Push(p.Session, f)
	}
	s.RecordEnqueue(now, p.Session, p.Length)
}

// Dequeue returns the packet with the smallest finish tag, advancing the
// self-clocked virtual time to that tag.
func (s *SCFQ) Dequeue(now float64) *packet.Packet {
	if s.hol.Empty() {
		return nil
	}
	id := s.hol.MinID()
	s.hol.Remove(id)
	q := &s.queues[id]
	st := q.Pop()
	s.backlog--
	s.v = st.f
	if !q.Empty() {
		s.hol.Push(id, q.Head().f)
	}
	// SCFQ has no start tag; trace the finish tag and the self-clocked v.
	s.RecordDequeueVT(now, id, st.p.Length, st.f-st.p.Length/s.rates[id], st.f, s.v)
	return st.p
}

// Backlog returns the number of queued packets.
func (s *SCFQ) Backlog() int { return s.backlog }

// SFQ is Start-time Fair Queueing [Goyal, Vin & Cheng, SIGCOMM'96 era]: the
// self-clocked dual of SCFQ. Packets are tagged S^k = max(F^{k-1}, v(a)),
// F^k = S^k + L/r_i, the virtual time is the start tag of the packet in
// service, and the server picks the smallest start tag. Included as an
// extension baseline from the same low-complexity family; like SCFQ its WFI
// grows with N, making it unsuitable as an H-PFQ building block.
type SFQ struct {
	rates   []float64
	lastF   []float64
	v       float64
	maxF    float64
	queues  []stampQueue
	hol     *pq.Heap // session → head start tag
	backlog int
	obs.Collector
}

// NewSFQ returns an SFQ server. The link rate is accepted for interface
// uniformity.
func NewSFQ(rate float64) *SFQ {
	s := &SFQ{hol: pq.NewHeap(8)}
	s.InitObs("SFQ", rate)
	return s
}

// Name identifies the algorithm.
func (s *SFQ) Name() string { return "SFQ" }

// AddSession registers session id with guaranteed rate in bits/sec.
func (s *SFQ) AddSession(id int, rate float64) {
	if id < 0 {
		panic("sched: negative session id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("sched: invalid session rate %g", rate))
	}
	for len(s.rates) <= id {
		s.rates = append(s.rates, 0)
		s.lastF = append(s.lastF, 0)
		s.queues = append(s.queues, stampQueue{})
	}
	if s.rates[id] != 0 {
		panic(fmt.Sprintf("sched: duplicate session id %d", id))
	}
	s.rates[id] = rate
	s.RegisterSession(id, rate)
}

// Enqueue tags the packet with start/finish tags and queues it.
func (s *SFQ) Enqueue(now float64, p *packet.Packet) {
	start := math.Max(s.lastF[p.Session], s.v)
	f := start + p.Length/s.rates[p.Session]
	s.lastF[p.Session] = f
	if f > s.maxF {
		s.maxF = f
	}
	q := &s.queues[p.Session]
	q.Push(stamped{p: p, s: start, f: f})
	s.backlog++
	if q.Len() == 1 {
		s.hol.Push(p.Session, start)
	}
	s.RecordEnqueue(now, p.Session, p.Length)
}

// Dequeue returns the packet with the smallest start tag, advancing the
// virtual time to that tag. When the system empties, the virtual time jumps
// to the maximum assigned finish tag (Goyal's busy-period rule) so a new
// busy period starts fresh.
func (s *SFQ) Dequeue(now float64) *packet.Packet {
	if s.hol.Empty() {
		return nil
	}
	id := s.hol.MinID()
	s.hol.Remove(id)
	q := &s.queues[id]
	st := q.Pop()
	s.backlog--
	s.v = st.s
	if !q.Empty() {
		s.hol.Push(id, q.Head().s)
	}
	if s.backlog == 0 {
		s.v = s.maxF
	}
	s.RecordDequeueVT(now, id, st.p.Length, st.s, st.f, s.v)
	return st.p
}

// Backlog returns the number of queued packets.
func (s *SFQ) Backlog() int { return s.backlog }
