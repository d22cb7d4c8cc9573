// Package netsim wires schedulers into the discrete-event simulator: a Link
// models one output port of a switch — the multiplexing point where, per the
// paper's introduction, packets from different sessions, service classes and
// link-sharing classes interact. A Link drains any Queue (a flat
// sched.Scheduler or a hier.Tree) at a fixed bit rate, applies optional
// per-session buffer limits, and publishes arrival/departure/drop events to
// instrumentation and adaptive sources (TCP).
package netsim

import (
	"fmt"
	"math"

	"hpfq/internal/des"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
)

// Queue is the server contract shared by flat schedulers and H-PFQ trees.
type Queue interface {
	Enqueue(now float64, p *packet.Packet)
	Dequeue(now float64) *packet.Packet
	Backlog() int
}

// releaser is the optional Queue extension of a server that can hold its
// backlog back (hier.Tree under ceilings): when Dequeue returns nil with a
// backlog, NextRelease says when to ask again.
type releaser interface {
	NextRelease() (at float64, ok bool)
}

// Link transmits packets from a Queue at a fixed rate, one at a time — the
// packet system model of §2: non-preemptive, work-conserving, one packet in
// service at any instant.
//
// The embedded collector measures the full per-packet sojourn (arrival to
// end of transmission), unlike a scheduler's collector which stops at the
// start of transmission; its drop counters cover the link's buffer limits.
type Link struct {
	sim  *des.Sim
	rate float64
	q    Queue

	busy        bool
	retry       *des.Event // pending ask-again at the queue's next release
	arriveHooks []func(*packet.Packet)
	departHooks []func(*packet.Packet)
	dropHooks   []func(*packet.Packet)

	limit map[int]int // per-session max packets in system (0 = unlimited)
	inSys map[int]int
	drops int64
	sent  int64
	work  float64 // bits transmitted
	obs.Collector
}

// NewLink returns a link of the given rate in bits/sec draining q.
func NewLink(sim *des.Sim, rate float64, q Queue) *Link {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("netsim: invalid link rate %g", rate))
	}
	l := &Link{
		sim:   sim,
		rate:  rate,
		q:     q,
		limit: make(map[int]int),
		inSys: make(map[int]int),
	}
	l.InitObs("link", rate)
	return l
}

// Sim returns the simulator driving the link.
func (l *Link) Sim() *des.Sim { return l.sim }

// Rate returns the link rate in bits/sec.
func (l *Link) Rate() float64 { return l.rate }

// Queue returns the underlying scheduler.
func (l *Link) Queue() Queue { return l.q }

// OnArrive registers a hook called for every accepted packet, after its
// Arrival time is stamped but before it is enqueued. Hooks observe queue
// state as it was at the arrival instant.
func (l *Link) OnArrive(fn func(*packet.Packet)) { l.arriveHooks = append(l.arriveHooks, fn) }

// OnDepart registers a hook called when a packet finishes transmission,
// after its Depart time is stamped.
func (l *Link) OnDepart(fn func(*packet.Packet)) { l.departHooks = append(l.departHooks, fn) }

// OnDrop registers a hook called when a packet is discarded by a buffer
// limit.
func (l *Link) OnDrop(fn func(*packet.Packet)) { l.dropHooks = append(l.dropHooks, fn) }

// SetSessionLimit caps the number of session packets in the system
// (queued + in service). Arrivals beyond the cap are dropped — the loss
// signal for the TCP sources of §5.2.
func (l *Link) SetSessionLimit(session, maxPackets int) {
	l.limit[session] = maxPackets
}

// Arrive delivers a packet to the link at the current simulation time.
// It returns false if the packet was dropped by a buffer limit.
func (l *Link) Arrive(p *packet.Packet) bool {
	now := l.sim.Now()
	p.Arrival = now
	if max := l.limit[p.Session]; max > 0 && l.inSys[p.Session] >= max {
		l.drops++
		l.RecordDrop(now, p.Session, p.Length)
		for _, fn := range l.dropHooks {
			fn(p)
		}
		return false
	}
	l.inSys[p.Session]++
	l.RecordEnqueue(now, p.Session, p.Length)
	for _, fn := range l.arriveHooks {
		fn(p)
	}
	l.q.Enqueue(now, p)
	if !l.busy {
		l.startNext()
	}
	return true
}

func (l *Link) startNext() {
	p := l.q.Dequeue(l.sim.Now())
	if p == nil {
		l.busy = false
		l.retryAtRelease()
		return
	}
	l.busy = true
	l.sim.After(p.Length/l.rate, func() {
		p.Depart = l.sim.Now()
		l.inSys[p.Session]--
		l.sent++
		l.work += p.Length
		l.RecordDequeue(p.Depart, p.Session, p.Length)
		for _, fn := range l.departHooks {
			fn(p)
		}
		l.startNext()
	})
}

// retryAtRelease schedules the idle link to ask the queue again when a
// backlog its ceilings hold becomes releasable: the link stays
// work-conserving up to the ceilings. One retry is pending at a time.
func (l *Link) retryAtRelease() {
	r, ok := l.q.(releaser)
	if !ok || l.q.Backlog() == 0 {
		return
	}
	at, held := r.NextRelease()
	if !held || l.retry != nil && l.retry.Time() <= at {
		return
	}
	if l.retry != nil {
		l.retry.Cancel()
	}
	l.retry = l.sim.At(max(at, l.sim.Now()), func() {
		l.retry = nil
		if !l.busy {
			l.startNext()
		}
	})
}

// Busy reports whether a packet is on the wire.
func (l *Link) Busy() bool { return l.busy }

// Sent returns the number of packets transmitted.
func (l *Link) Sent() int64 { return l.sent }

// Drops returns the number of packets discarded by buffer limits.
func (l *Link) Drops() int64 { return l.drops }

// Work returns the total bits transmitted.
func (l *Link) Work() float64 { return l.work }

// InSystem returns the number of session packets queued or in service.
func (l *Link) InSystem(session int) int { return l.inSys[session] }
