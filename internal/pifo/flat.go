package pifo

import (
	"fmt"
	"math"

	"hpfq/internal/obs"
	"hpfq/internal/packet"
)

// pktQueue is a FIFO of packets with an optional parallel stamp lane, filled
// only in arrival-stamping mode (head-of-queue mode keeps stamps in the PIFO,
// so it never pays the 40-byte stamp copies). Same compaction scheme as
// packet.FIFO.
type pktQueue struct {
	pkts []*packet.Packet
	sts  []Stamp
	head int
}

func (q *pktQueue) Len() int              { return len(q.pkts) - q.head }
func (q *pktQueue) Empty() bool           { return q.Len() == 0 }
func (q *pktQueue) Push(p *packet.Packet) { q.pkts = append(q.pkts, p) }
func (q *pktQueue) Head() *packet.Packet  { return q.pkts[q.head] }
func (q *pktQueue) HeadStamp() Stamp      { return q.sts[q.head] }
func (q *pktQueue) PushStamped(p *packet.Packet, st Stamp) {
	q.pkts = append(q.pkts, p)
	q.sts = append(q.sts, st)
}
func (q *pktQueue) Pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:n]
		if q.sts != nil {
			q.sts = q.sts[:copy(q.sts, q.sts[q.head:])]
		}
		q.head = 0
	}
	return p
}

// Sched is the generic standalone scheduler host: per-session FIFO packet
// queues in front of one PIFO, with all discipline-specific behavior
// delegated to the Policy. It satisfies sched.Scheduler. It is the
// simulator's flat server; the data plane runs every policy in its node
// form under internal/hier.
type Sched struct {
	queue
	bound
	name    string
	arrival bool // stamp packets at arrival (eq. 6) vs head promotion (eq. 28)
	tagless bool
	queues  []pktQueue
	backlog int
	tick    Ticker // optional extension, resolved once like bound's
	obs.Collector
}

// NewSched hosts the factory's flat policy for a link of the given rate in
// bits/sec. It panics if the factory has no flat form.
func NewSched(f Factory, rate float64) *Sched {
	if f.Flat == nil {
		panic(fmt.Sprintf("pifo: policy %q has no flat form", f.Name))
	}
	s := &Sched{
		bound:   bindPolicy(f.Flat(rate)),
		name:    f.Name,
		arrival: f.Arrival,
		tagless: f.Tagless,
	}
	s.reset(f.Monotone && !f.Arrival)
	s.tick, _ = s.pol.(Ticker)
	s.InitObs(f.Name, rate)
	return s
}

// Name identifies the hosted policy.
func (s *Sched) Name() string { return s.name }

// VirtualTime returns the policy's virtual time.
func (s *Sched) VirtualTime() float64 { return s.pol.V() }

// AddSession registers session id with guaranteed rate in bits/sec.
func (s *Sched) AddSession(id int, rate float64) {
	if id < 0 {
		panic("pifo: negative session id")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("pifo: invalid session rate %g", rate))
	}
	for len(s.queues) <= id {
		s.queues = append(s.queues, pktQueue{})
	}
	s.grow(id)
	if s.slots[id].defined {
		panic(fmt.Sprintf("pifo: duplicate session id %d", id))
	}
	s.slots[id] = slot{rate: rate, defined: true}
	s.pol.AddFlow(id, rate)
	s.RegisterSession(id, rate)
}

// Enqueue accepts a packet at time now. In arrival mode every packet is
// stamped immediately (the per-flow tag chain must see every arrival); in
// head mode only a packet reaching the head of its flow queue is stamped.
func (s *Sched) Enqueue(now float64, p *packet.Packet) {
	if p.Session < 0 || p.Session >= len(s.slots) || !s.slots[p.Session].defined {
		panic(fmt.Sprintf("pifo: enqueue for unknown session %d", p.Session))
	}
	q := &s.queues[p.Session]
	if s.arrival {
		st := s.pol.Arrive(now, p.Session, p.Length, false)
		q.PushStamped(p, st)
		if q.Len() == 1 {
			s.enter(p.Session, p.Length, st, s.pol.V())
		}
	} else {
		q.Push(p)
		if q.Len() == 1 {
			st := s.pol.Arrive(now, p.Session, p.Length, false)
			s.enter(p.Session, p.Length, st, s.pol.V())
		}
	}
	s.backlog++
	s.RecordEnqueue(now, p.Session, p.Length)
}

// Dequeue returns the next packet to transmit, or nil when empty: tick the
// policy clock, floor and migrate eligibility, pop the smallest rank, run
// the defer hook, commit, and promote the served flow's next head.
func (s *Sched) Dequeue(now float64) *packet.Packet {
	if s.backlog == 0 {
		return nil
	}
	if s.tick != nil {
		s.tick.Tick(now)
	}
	s.settle(&s.bound)
	id := s.popDeferring(&s.bound)
	length, st := s.slots[id].length, s.slots[id].st
	q := &s.queues[id]
	served := q.Pop()
	s.backlog--
	// Commit returns the advanced clock; one value serves the re-push and
	// the trace hook (Arrive never moves the clock — Policy contract).
	v := s.pol.Commit(id, length, st, s.backlog)
	if !q.Empty() {
		hp := q.Head()
		if s.arrival {
			s.enter(id, hp.Length, q.HeadStamp(), v)
		} else {
			s.enter(id, hp.Length, s.pol.Arrive(now, id, hp.Length, true), v)
		}
	}
	if s.tagless {
		s.RecordDequeue(now, id, length)
	} else {
		s.RecordDequeueVT(now, id, length, st.S, st.F, v)
	}
	return served
}

// enter puts session id's head of the given length and stamp into the PIFO
// at virtual time v.
func (s *Sched) enter(id int, length float64, st Stamp, v float64) {
	sl := &s.slots[id]
	sl.length, sl.st = length, st
	s.insert(id, v)
}

// Backlog returns the number of queued packets.
func (s *Sched) Backlog() int { return s.backlog }
