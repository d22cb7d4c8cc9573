package sched

import (
	"reflect"
	"sort"
	"testing"

	"hpfq/internal/core"
	"hpfq/internal/des"
	"hpfq/internal/netsim"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
)

// Golden equivalence: the PIFO-hosted policies (what the registry now
// returns) must reproduce the seed implementations exactly — identical
// departure orders and identical traced virtual times, packet for packet.
// The seeds stay in the tree as the executable specification; these tests
// pin the substrate to them.

// lcg is a tiny deterministic generator so both sides of an equivalence
// pair replay the identical workload.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = lcg(uint64(*r)*6364136223846793005 + 1442695040888963407)
	return uint64(*r) >> 33
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

type departure struct {
	at      float64
	session int
	bits    float64
}

// driveFlat replays a scripted open-loop workload — arrival bursts, partial
// drains at link speed, occasional idle gaps — and returns the departures
// and the full event trace.
func driveFlat(s Scheduler, seed uint64) ([]departure, []obs.Event) {
	ring := obs.NewRingTracer(1 << 14)
	s.SetTracer(ring)
	rates := []float64{0.5e6, 0.3e6, 0.2e6}
	for id, r := range rates {
		s.AddSession(id, r)
	}
	lengths := []float64{4000, 8000, 12000, 16000}
	rng := lcg(seed)
	const linkRate = 1e6
	now := 0.0
	var out []departure
	take := func() {
		p := s.Dequeue(now)
		if p == nil {
			return
		}
		out = append(out, departure{at: now, session: p.Session, bits: p.Length})
		now += p.Length / linkRate
	}
	for step := 0; step < 500; step++ {
		for k := rng.intn(4); k > 0; k-- {
			id := rng.intn(len(rates))
			s.Enqueue(now, packet.New(id, lengths[rng.intn(len(lengths))]))
		}
		for k := rng.intn(5); k > 0 && s.Backlog() > 0; k-- {
			take()
		}
		if rng.intn(8) == 0 {
			now += float64(1+rng.intn(20)) * 1e-3
		}
	}
	for s.Backlog() > 0 {
		take()
	}
	return out, ring.Events()
}

// scrub blanks the component name so a seed's trace compares against the
// host's regardless of how each labels itself.
func scrub(evs []obs.Event) []obs.Event {
	out := append([]obs.Event(nil), evs...)
	for i := range out {
		out[i].Node = ""
	}
	return out
}

func compareTraces(t *testing.T, golden, hosted []obs.Event) {
	t.Helper()
	g, h := scrub(golden), scrub(hosted)
	if len(g) != len(h) {
		t.Fatalf("trace length: seed %d events, pifo %d", len(g), len(h))
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], h[i]) {
			t.Fatalf("trace diverges at event %d:\n  seed %+v\n  pifo %+v", i, g[i], h[i])
		}
	}
}

func TestPIFOFlatEquivalence(t *testing.T) {
	seeds := map[string]func(rate float64) Scheduler{
		"WF2Q+": func(r float64) Scheduler { return core.NewScheduler(r) },
		"WFQ":   func(r float64) Scheduler { return NewWFQ(r) },
		"WF2Q":  func(r float64) Scheduler { return NewWF2Q(r) },
		"SCFQ":  func(r float64) Scheduler { return NewSCFQ(r) },
		"SFQ":   func(r float64) Scheduler { return NewSFQ(r) },
		"DRR":   func(r float64) Scheduler { return NewDRR(r) },
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ctor := seeds[name]
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 42, 1234567} {
				golden := ctor(1e6)
				hosted, err := New(name, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				gd, gt := driveFlat(golden, seed)
				hd, ht := driveFlat(hosted, seed)
				if !reflect.DeepEqual(gd, hd) {
					n := len(gd)
					if len(hd) < n {
						n = len(hd)
					}
					for i := 0; i < n; i++ {
						if gd[i] != hd[i] {
							t.Fatalf("seed %d: departure %d: seed %+v, pifo %+v", seed, i, gd[i], hd[i])
						}
					}
					t.Fatalf("seed %d: %d vs %d departures", seed, len(gd), len(hd))
				}
				compareTraces(t, gt, ht)
			}
		})
	}
}

// driveNode replays a scripted Push/Pop sequence — the hierarchy's logical
// one-packet queues, including S ← F continuations — and returns the pop
// order and the full event trace.
func driveNode(n NodeScheduler, seed uint64) ([]int, []obs.Event) {
	ring := obs.NewRingTracer(1 << 14)
	n.SetTracer(ring)
	rates := []float64{0.4e6, 0.3e6, 0.2e6, 0.1e6}
	for id, r := range rates {
		n.AddChild(id, r)
	}
	backlogged := make([]bool, len(rates))
	lengths := []float64{4000, 8000, 16000}
	rng := lcg(seed)
	var pops []int
	for step := 0; step < 3000; step++ {
		if rng.intn(2) == 0 {
			id := rng.intn(len(rates))
			if !backlogged[id] {
				n.Push(id, lengths[rng.intn(len(lengths))], false)
				backlogged[id] = true
			}
			continue
		}
		if !n.Backlogged() {
			continue
		}
		id, ok := n.Pop()
		if !ok {
			continue
		}
		pops = append(pops, id)
		backlogged[id] = false
		if rng.intn(2) == 0 {
			n.Push(id, lengths[rng.intn(len(lengths))], true)
			backlogged[id] = true
		}
	}
	for n.Backlogged() {
		id, ok := n.Pop()
		if !ok {
			break
		}
		pops = append(pops, id)
		backlogged[id] = false
	}
	return pops, ring.Events()
}

func TestPIFONodeEquivalence(t *testing.T) {
	seeds := map[string]func(rate float64) NodeScheduler{
		"WF2Q+": func(r float64) NodeScheduler { return core.NewNode(r) },
		"WFQ":   func(r float64) NodeScheduler { return NewWFQNode(r) },
		"WF2Q":  func(r float64) NodeScheduler { return NewWF2QNode(r) },
		"SCFQ":  func(r float64) NodeScheduler { return NewSCFQNode(r) },
		"SFQ":   func(r float64) NodeScheduler { return NewSFQNode(r) },
		"DRR":   func(r float64) NodeScheduler { return NewDRRNode(r) },
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ctor := seeds[name]
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{7, 99, 31337} {
				golden := ctor(1e6)
				hosted, err := NewNode(name, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				gp, gt := driveNode(golden, seed)
				hp, ht := driveNode(hosted, seed)
				if !reflect.DeepEqual(gp, hp) {
					n := len(gp)
					if len(hp) < n {
						n = len(hp)
					}
					for i := 0; i < n; i++ {
						if gp[i] != hp[i] {
							t.Fatalf("seed %d: pop %d: seed child %d, pifo child %d", seed, i, gp[i], hp[i])
						}
					}
					t.Fatalf("seed %d: %d vs %d pops", seed, len(gp), len(hp))
				}
				compareTraces(t, gt, ht)
			}
		})
	}
}

// TestFIFOPolicyMatchesSeed: the registry's FIFO, a PIFO policy ranking by
// arrival order, serves a link exactly as the seed FIFO server does — the
// same packets at the same times, with the same trace — on seeded
// workloads near full load, where several sessions are backlogged at once
// and arrivals share timestamps.
func TestFIFOPolicyMatchesSeed(t *testing.T) {
	type dep struct {
		at      float64
		session int
		seq     int64
	}
	const nsess, linkRate = 5, 1e6
	run := func(s Scheduler, seed uint64) ([]dep, []obs.Event) {
		ring := obs.NewRingTracer(1 << 13)
		s.SetTracer(ring)
		for id := 0; id < nsess; id++ {
			s.AddSession(id, linkRate/nsess)
		}
		sim := des.New()
		link := netsim.NewLink(sim, linkRate, s)
		var out []dep
		link.OnDepart(func(p *packet.Packet) { out = append(out, dep{sim.Now(), p.Session, p.Seq}) })
		rng := lcg(seed)
		var seqs [nsess]int64
		at := 0.0
		for i := 0; i < 2000; i++ {
			if rng.intn(3) == 0 { // the other arrivals share the last timestamp
				at += float64(rng.intn(40)) * 1e-3
			}
			id := rng.intn(nsess)
			p := packet.New(id, float64(1000*(1+rng.intn(12))))
			p.Seq = seqs[id]
			seqs[id]++
			sim.At(at, func() { link.Arrive(p) })
		}
		sim.RunAll()
		return out, ring.Events()
	}
	for _, seed := range []uint64{3, 77, 4242} {
		hosted, err := New("FIFO", linkRate)
		if err != nil {
			t.Fatal(err)
		}
		gd, gt := run(NewFIFO(linkRate), seed)
		hd, ht := run(hosted, seed)
		if len(gd) != 2000 || len(hd) != len(gd) {
			t.Fatalf("seed %d: %d seed departures, %d pifo", seed, len(gd), len(hd))
		}
		for i := range gd {
			if gd[i] != hd[i] {
				t.Fatalf("seed %d: departure %d: seed %+v, pifo %+v", seed, i, gd[i], hd[i])
			}
		}
		compareTraces(t, gt, ht)
	}
}
