package hier

import (
	"math"
	"slices"
	"testing"

	"hpfq/internal/des"
	"hpfq/internal/netsim"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
	"hpfq/internal/sched"
	"hpfq/internal/topo"
)

// flatTree returns NewFlat's one-level server running the named policy at
// the given link rate, with one leaf per rate.
func flatTree(t *testing.T, policy string, rate float64, rates ...float64) *Tree {
	t.Helper()
	root, err := sched.NewNode(policy, rate)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewFlat(rate, root)
	for id, r := range rates {
		if err := tr.AddLeaf("", "", id, r); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// drainTree dequeues everything at now and returns the session order.
func drainTree(tr *Tree, now float64) []int {
	var out []int
	for p := tr.Dequeue(now); p != nil; p = tr.Dequeue(now) {
		out = append(out, p.Session)
	}
	return out
}

// TestFlatMatchesSched: a one-level tree whose root holds absolute child
// rates is the flat WF²Q+ server. Driven through netsim.Link with the same
// seeded arrivals, it departs the same packets at the same instants as
// pifo.Sched, whether the guaranteed rates undersubscribe, exactly fill or
// oversubscribe the link.
func TestFlatMatchesSched(t *testing.T) {
	const link, pkts = 1.0, 600
	for _, c := range []struct {
		name  string
		rates []float64
	}{
		{"under", []float64{0.3, 0.2, 0.1, 0.05, 0.05}},
		{"exact", []float64{0.4, 0.3, 0.15, 0.1, 0.05}},
		{"over", []float64{0.6, 0.5, 0.3, 0.2, 0.1}},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			tree := flatTree(t, "WF2Q+", link, c.rates...)
			flat := pifo.NewSched(pifo.WF2QPlus(), link)
			for id, r := range c.rates {
				flat.AddSession(id, r)
			}
			a := randomWorkload(t, tree, link, len(c.rates), pkts, seed)
			b := randomWorkload(t, flat, link, len(c.rates), pkts, seed)
			if len(a) != pkts || len(b) != pkts {
				t.Fatalf("%s/%d: departed %d (tree) and %d (flat) of %d", c.name, seed, len(a), len(b), pkts)
			}
			for i := range a {
				if a[i].Session != b[i].Session || a[i].Seq != b[i].Seq || math.Abs(a[i].Depart-b[i].Depart) > 1e-9 {
					t.Fatalf("%s/%d: departure %d: tree (%d,%d)@%g, flat (%d,%d)@%g", c.name, seed, i,
						a[i].Session, a[i].Seq, a[i].Depart, b[i].Session, b[i].Seq, b[i].Depart)
				}
			}
		}
	}
}

// TestFlatLiveMutations: under NewFlat's root a retune, a graft and a
// removal change the named leaf alone; the last leaf may go, and its id
// comes back in a reused slot.
func TestFlatLiveMutations(t *testing.T) {
	tr := flatTree(t, "WF2Q+", 1e6, 5e5, 5e5)
	if err := tr.SetSessionRate(0, 9e5); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetSessionRate(1, 1e5); err != nil {
		t.Fatal(err)
	}
	if r0, r1 := tr.SessionRate(0), tr.SessionRate(1); r0 != 9e5 || r1 != 1e5 {
		t.Fatalf("rates after retunes: %g, %g", r0, r1)
	}
	if err := tr.SetSessionRate(7, 1e5); err == nil {
		t.Fatal("unknown session retuned")
	}
	if err := tr.SetSessionRate(0, -1); err == nil {
		t.Fatal("negative rate accepted")
	}
	// Session 0 at 9× session 1's rate takes at least 3 of the first 4.
	for i := 0; i < 4; i++ {
		tr.Enqueue(0, packet.New(0, 8000))
		tr.Enqueue(0, packet.New(1, 8000))
	}
	order := drainTree(tr, 0)
	if zeros := 4 - order[0] - order[1] - order[2] - order[3]; zeros < 3 {
		t.Fatalf("first half of service %v: session 0 served %d of 4, want >= 3", order, zeros)
	}

	if err := tr.AddLeaf("", "", 2, 3e5); err != nil {
		t.Fatal(err)
	}
	if r0, r2 := tr.SessionRate(0), tr.SessionRate(2); r0 != 9e5 || r2 != 3e5 {
		t.Fatalf("graft moved a sibling or missed its rate: %g, %g", r0, r2)
	}
	// A named leaf's "share" under the flat root is its rate, retuned by
	// SetSessionRate, not SetNodeShare.
	if err := tr.AddLeaf("", "x", 3, 1e5); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetNodeShare("x", 2e5); err == nil || tr.SessionRate(3) != 1e5 {
		t.Fatalf("SetNodeShare(x) = %v on a flat tree: rate %g", err, tr.SessionRate(3))
	}
	tr.Enqueue(0, packet.New(1, 8000))
	if err := tr.RemoveLeaf(1); err == nil {
		t.Fatal("removed a backlogged leaf")
	}
	drainTree(tr, 0)
	for _, id := range []int{1, 2, 3, 0} {
		if err := tr.RemoveLeaf(id); err != nil {
			t.Fatalf("remove %d: %v", id, err)
		}
	}
	if err := tr.RemoveLeaf(0); err == nil {
		t.Fatal("removed a leaf twice")
	}
	nodes := len(tr.nodes)
	if err := tr.AddLeaf("", "", 0, 2e5); err != nil {
		t.Fatalf("freed id 0 did not come back: %v", err)
	}
	if len(tr.nodes) != nodes || len(tr.root.children) != 4 {
		t.Fatalf("re-add grew the tree to %d nodes, %d root slots", len(tr.nodes), len(tr.root.children))
	}
	tr.Enqueue(0, packet.New(0, 8000))
	if got := drainTree(tr, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("survivor order %v after removals", got)
	}
}

// TestFlatSetPolicyKeepsBacklog: a live swap of the root's policy keeps the
// standing backlog and renames the tree after the new policy.
func TestFlatSetPolicyKeepsBacklog(t *testing.T) {
	tr := flatTree(t, "WF2Q+", 1e6, 5e5, 5e5)
	for i := 0; i < 3; i++ {
		tr.Enqueue(0, packet.New(0, 8000))
		tr.Enqueue(0, packet.New(1, 8000))
	}
	sp, _ := pifo.Lookup("SP")
	if err := tr.SetNodePolicy("", sp); err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "SP" {
		t.Fatalf("name %q after swap", tr.Name())
	}
	// Strict priority must now serve all of session 0 first.
	if got := drainTree(tr, 0); !slices.Equal(got, []int{0, 0, 0, 1, 1, 1}) {
		t.Fatalf("post-swap order %v", got)
	}
}

// TestTopoCeilsInSimulator: hier.New applies the topology's '^ceil'
// clauses and netsim.Link waits out a held backlog, so a simulated tree
// obeys its ceilings. Session 0 (A) is capped at 100 kb/s on a 10 Mb/s
// link; over 0.5 s of greedy traffic it may send at most
// ceil·t + BucketDepth(ceil) + L_max, and B and C split the rest 1:1
// (C1 and C2 halving C's) with the link never idle. Alone, session 0's
// backlog drains at its ceiling.
func TestTopoCeilsInSimulator(t *testing.T) {
	const (
		rate = 10e6
		ceil = 1e5
		dur  = 0.5
	)
	top, err := topo.Parse("root=1(A=1^1e5:0,B=1:1,C=1(C1=1:2,C2=1:3))")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(top, rate, "WF2Q+")
	if err != nil {
		t.Fatal(err)
	}
	if c := tr.Ceil(0); c != ceil {
		t.Fatalf("session 0 ceiling %g, want %g", c, ceil)
	}
	sim := des.New()
	l := netsim.NewLink(sim, rate, tr)
	bits := map[int]float64{}
	l.OnDepart(func(p *packet.Packet) {
		if p.Depart <= dur {
			bits[p.Session] += p.Length
		}
	})
	for i := 0; i < 400; i++ {
		for s := 0; s < 4; s++ {
			l.Arrive(packet.New(s, packet.Bits8KB))
		}
	}
	sim.Run(dur)
	if bound := ceil*dur + pifo.BucketDepth(ceil) + packet.Bits8KB; bits[0] > bound {
		t.Fatalf("capped session 0 sent %.0f bits in %gs, ceiling bound %.0f", bits[0], dur, bound)
	}
	var total float64
	for _, b := range bits {
		total += b
	}
	if total < rate*dur-2*packet.Bits8KB {
		t.Fatalf("link sent %.0f bits in %gs, want about %.0f: it idled under the ceiling", total, dur, rate*dur)
	}
	rest := total - bits[0]
	for s, share := range map[int]float64{1: 0.5, 2: 0.25, 3: 0.25} {
		if got := bits[s] / rest; math.Abs(got-share) > 0.05 {
			t.Errorf("session %d took %.3f of the uncapped traffic, want %.2f", s, got, share)
		}
	}

	// Alone, session 0 is held between departures with the link idle: the
	// link asks again at each release, and ten packets finish as soon as
	// the ceiling allows, 10·L_max ≤ ceil·T + BucketDepth + L_max.
	tr, err = New(top, rate, "WF2Q+")
	if err != nil {
		t.Fatal(err)
	}
	sim = des.New()
	l = netsim.NewLink(sim, rate, tr)
	var n int
	var last float64
	l.OnDepart(func(p *packet.Packet) { n, last = n+1, p.Depart })
	for i := 0; i < 10; i++ {
		l.Arrive(packet.New(0, packet.Bits8KB))
	}
	sim.RunAll()
	if want := (9*packet.Bits8KB - pifo.BucketDepth(ceil)) / ceil; n != 10 || last < want || last > want+0.05 {
		t.Fatalf("alone: %d of 10 packets departed, the last at %.4fs, want %.4fs", n, last, want)
	}
}
