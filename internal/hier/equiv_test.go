package hier

import (
	"reflect"
	"sort"
	"testing"

	"hpfq/internal/core"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/sched"
	"hpfq/internal/topo"
)

// Hierarchy-level golden equivalence: an H-PFQ tree whose nodes are the
// PIFO-hosted policies (hier.New) must reproduce a tree built from the seed
// node schedulers (BuildSpec over a seed constructor) exactly — identical departures and identical
// per-node traces, including the nodes' reference-time virtual stamps.

type eqLCG uint64

func (r *eqLCG) next() uint64 {
	*r = eqLCG(uint64(*r)*6364136223846793005 + 1442695040888963407)
	return uint64(*r) >> 33
}

func (r *eqLCG) intn(n int) int { return int(r.next() % uint64(n)) }

type eqDeparture struct {
	at      float64
	session int
	bits    float64
}

func driveTree(tr *Tree, seed uint64) ([]eqDeparture, []obs.Event) {
	ring := obs.NewRingTracer(1 << 15)
	tr.SetTracer(ring)
	lengths := []float64{4000, 8000, 12000}
	rng := eqLCG(seed)
	const linkRate = 1e6
	now := 0.0
	var out []eqDeparture
	take := func() {
		p := tr.Dequeue(now)
		if p == nil {
			return
		}
		out = append(out, eqDeparture{at: now, session: p.Session, bits: p.Length})
		now += p.Length / linkRate
	}
	for step := 0; step < 600; step++ {
		for k := rng.intn(3); k > 0; k-- {
			id := rng.intn(4)
			tr.Enqueue(now, packet.New(id, lengths[rng.intn(len(lengths))]))
		}
		for k := rng.intn(4); k > 0 && tr.Backlog() > 0; k-- {
			take()
		}
		if rng.intn(8) == 0 {
			now += float64(1+rng.intn(15)) * 1e-3
		}
	}
	for tr.Backlog() > 0 {
		take()
	}
	return out, ring.Events()
}

func equivTopology() *topo.Node {
	return topo.Interior("root", 1,
		topo.Interior("A", 0.75,
			topo.Leaf("A1", 0.5, 0),
			topo.Leaf("A2", 0.5, 1)),
		topo.Interior("B", 0.25,
			topo.Leaf("B1", 0.6, 2),
			topo.Leaf("B2", 0.4, 3)))
}

func TestPIFOHierarchyEquivalence(t *testing.T) {
	seeds := map[string]func(r float64) sched.NodeScheduler{
		"WF2Q+": func(r float64) sched.NodeScheduler { return core.NewNode(r) },
		"WFQ":   func(r float64) sched.NodeScheduler { return sched.NewWFQNode(r) },
		"WF2Q":  func(r float64) sched.NodeScheduler { return sched.NewWF2QNode(r) },
		"SCFQ":  func(r float64) sched.NodeScheduler { return sched.NewSCFQNode(r) },
		"SFQ":   func(r float64) sched.NodeScheduler { return sched.NewSFQNode(r) },
		"DRR":   func(r float64) sched.NodeScheduler { return sched.NewDRRNode(r) },
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ctor := seeds[name]
		t.Run(name, func(t *testing.T) {
			golden, err := BuildSpec(equivTopology(), 1e6, name,
				func(_ *topo.Node, r float64) (sched.NodeScheduler, error) { return ctor(r), nil })
			if err != nil {
				t.Fatal(err)
			}
			hosted, err := New(equivTopology(), 1e6, name)
			if err != nil {
				t.Fatal(err)
			}
			gd, gt := driveTree(golden, 4242)
			hd, ht := driveTree(hosted, 4242)
			if !reflect.DeepEqual(gd, hd) {
				n := len(gd)
				if len(hd) < n {
					n = len(hd)
				}
				for i := 0; i < n; i++ {
					if gd[i] != hd[i] {
						t.Fatalf("departure %d: seed %+v, pifo %+v", i, gd[i], hd[i])
					}
				}
				t.Fatalf("%d vs %d departures", len(gd), len(hd))
			}
			if len(gt) != len(ht) {
				t.Fatalf("trace length: seed %d events, pifo %d", len(gt), len(ht))
			}
			for i := range gt {
				if !reflect.DeepEqual(gt[i], ht[i]) {
					t.Fatalf("trace diverges at event %d:\n  seed %+v\n  pifo %+v", i, gt[i], ht[i])
				}
			}
		})
	}
}
