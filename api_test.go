package hpfq_test

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"hpfq"
)

// TestPublicAPIQuickstart is the README quickstart, asserted: a WF²Q+ link
// delivers guarantees through the public facade.
func TestPublicAPIQuickstart(t *testing.T) {
	sim := hpfq.NewSim()
	sched, err := hpfq.New(hpfq.WF2QPlus, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	sched.AddSession(0, 7e6)
	sched.AddSession(1, 3e6)
	link := hpfq.NewLink(sim, 10e6, sched)

	served := map[int]float64{}
	link.OnDepart(func(p *hpfq.Packet) {
		served[p.Session] += p.Length
		link.Arrive(hpfq.NewPacket(p.Session, 10000))
	})
	// Two packets outstanding per session: a session whose queue drains the
	// instant its packet enters service is not "continuously backlogged" in
	// the paper's sense, and the fairness guarantees don't apply to it.
	for s := 0; s < 2; s++ {
		link.Arrive(hpfq.NewPacket(s, 10000))
		link.Arrive(hpfq.NewPacket(s, 10000))
	}
	sim.Run(10)

	if r := served[0] / 10; math.Abs(r-7e6)/7e6 > 0.03 {
		t.Errorf("session 0 rate %.0f, want ~7e6", r)
	}
	if r := served[1] / 10; math.Abs(r-3e6)/3e6 > 0.03 {
		t.Errorf("session 1 rate %.0f, want ~3e6", r)
	}
}

// TestPublicAPIHierarchy: the README link-sharing snippet through New and
// NewHierarchy, with every registered algorithm.
func TestPublicAPIHierarchy(t *testing.T) {
	top := hpfq.Interior("link", 1,
		hpfq.Interior("A1", 0.5,
			hpfq.Leaf("rt", 0.6, 0),
			hpfq.Leaf("be", 0.4, 1)),
		hpfq.Leaf("A2", 0.5, 2))

	for _, algo := range []hpfq.Algorithm{hpfq.WF2QPlus, hpfq.WFQ, hpfq.WF2Q, hpfq.SCFQ, hpfq.SFQ, hpfq.DRR} {
		tree, err := hpfq.NewHierarchy(top, 45e6, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if tree.Name() != "H-"+string(algo) {
			t.Errorf("Name = %q", tree.Name())
		}
		sim := hpfq.NewSim()
		link := hpfq.NewLink(sim, 45e6, tree)
		served := map[int]float64{}
		link.OnDepart(func(p *hpfq.Packet) {
			served[p.Session] += p.Length
			link.Arrive(hpfq.NewPacket(p.Session, hpfq.Bits8KB))
		})
		for s := 0; s < 3; s++ {
			link.Arrive(hpfq.NewPacket(s, hpfq.Bits8KB))
			link.Arrive(hpfq.NewPacket(s, hpfq.Bits8KB))
		}
		sim.Run(5)
		want := map[int]float64{0: 13.5e6, 1: 9e6, 2: 22.5e6}
		for s, w := range want {
			if got := served[s] / 5; math.Abs(got-w)/w > 0.06 {
				t.Errorf("%s: session %d rate %.0f, want %.0f", algo, s, got, w)
			}
		}
	}
}

// TestPublicAPIFluid: GPS and H-GPS reference systems and IdealShares.
func TestPublicAPIFluid(t *testing.T) {
	g := hpfq.NewGPS(1)
	g.AddSession(0, 0.5)
	g.Arrive(0, hpfq.NewPacket(0, 2))
	if end := g.Drain(); math.Abs(end-2) > 1e-9 {
		t.Errorf("GPS drain at %g, want 2", end)
	}

	top := hpfq.Interior("r", 1,
		hpfq.Leaf("a", 0.7, 0),
		hpfq.Leaf("b", 0.3, 1))
	h, err := hpfq.NewHGPS(top, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Arrive(0, hpfq.NewPacket(0, 70))
	h.Arrive(0, hpfq.NewPacket(1, 30))
	h.Drain()
	if d := h.Departures(); len(d) != 2 || math.Abs(d[0].Time-10) > 1e-9 {
		t.Errorf("H-GPS departures %v", d)
	}

	shares := hpfq.IdealShares(top, 10, map[int]bool{1: true})
	if shares[1] != 10 {
		t.Errorf("lone active session share %g, want full link", shares[1])
	}

	c := hpfq.NewGPSClock(1)
	c.AddSession(0, 0.5)
	c.Stamp(0, 1)
	c.Advance(0.5)
	if c.V() != 1 {
		t.Errorf("clock V = %g, want 1", c.V())
	}
}

// TestPublicAPITCPAndTraffic: TCP source plus traffic generators through
// the facade (the tcpfairness example, asserted).
func TestPublicAPITCPAndTraffic(t *testing.T) {
	sched, err := hpfq.New(hpfq.WF2QPlus, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	sched.AddSession(0, 4e6)
	sched.AddSession(1, 6e6)
	sim := hpfq.NewSim()
	link := hpfq.NewLink(sim, 10e6, sched)
	link.SetSessionLimit(0, 20)
	served := map[int]float64{}
	link.OnDepart(func(p *hpfq.Packet) { served[p.Session] += p.Length })

	src := hpfq.NewTCPSource(sim, link, 0, 12000, 0.02, 0)
	src.Run()
	(&hpfq.CBR{Session: 1, Rate: 9e6, PktBits: 12000, Stop: 10}).
		Run(sim, hpfq.ToLink(link))
	sim.Run(10)

	if got := served[0] / 10; got < 3e6 {
		t.Errorf("TCP got %.0f bps of its 4 Mbps share", got)
	}
	if got := served[1] / 10; got > 6.3e6 {
		t.Errorf("flood got %.0f bps, limited to ~6 Mbps", got)
	}
	if src.Delivered() == 0 {
		t.Error("TCP delivered nothing")
	}
}

// TestPublicAPILeakyBucket: the regulator through the facade.
func TestPublicAPILeakyBucket(t *testing.T) {
	sim := hpfq.NewSim()
	var times []float64
	lb := hpfq.NewLeakyBucket(sim, 1000, 1000, func(p *hpfq.Packet) {
		times = append(times, sim.Now())
	})
	emit := lb.Emit()
	sim.At(0, func() {
		for i := 0; i < 5; i++ {
			emit(hpfq.NewPacket(0, 1000))
		}
	})
	sim.RunAll()
	// σ = one packet: first at 0, then one per second.
	want := []float64{0, 1, 2, 3, 4}
	for i, w := range want {
		if math.Abs(times[i]-w) > 1e-6 {
			t.Fatalf("release %d at %g, want %g", i, times[i], w)
		}
	}
}

// TestAlgorithmsList: registry exposure.
func TestAlgorithmsList(t *testing.T) {
	want := []hpfq.Algorithm{hpfq.DRR, hpfq.EDF, hpfq.FIFO, hpfq.LSTF, hpfq.SCFQ,
		hpfq.SFQ, hpfq.SP, hpfq.SRPT, hpfq.WF2Q, hpfq.WF2QPlus, hpfq.WFQ}
	if got := hpfq.Algorithms(); !slices.Equal(got, want) {
		t.Errorf("Algorithms() = %v, want %v", got, want)
	}
	if _, err := hpfq.New("bogus", 1); err == nil {
		t.Error("bogus algorithm should error")
	}
	if _, err := hpfq.NewHierarchy(hpfq.Leaf("x", 1, 0), 1, hpfq.WF2QPlus); err == nil {
		t.Error("leaf-only topology should error")
	}
}

// TestEveryAlgorithmFourWays: every registry entry has a flat and a node
// form, so each builds four ways — a flat scheduler, a hierarchy node, a
// whole hierarchy and a flat data-plane engine — and each serves what it is
// given.
func TestEveryAlgorithmFourWays(t *testing.T) {
	for _, algo := range hpfq.Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			s, err := hpfq.New(algo, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			s.AddSession(0, 0.6e6)
			s.AddSession(1, 0.4e6)
			for i := 0; i < 4; i++ {
				s.Enqueue(0, hpfq.NewPacket(i%2, 8000))
			}
			for i := 0; i < 4; i++ {
				if s.Dequeue(0) == nil {
					t.Fatalf("New: dequeue %d found nothing", i)
				}
			}

			n, err := hpfq.NewNode(algo, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			n.AddChild(0, 0.6e6)
			n.AddChild(1, 0.4e6)
			n.Push(0, 8000, false)
			n.Push(1, 8000, false)
			for i := 0; i < 2; i++ {
				if _, ok := n.Pop(); !ok {
					t.Fatalf("NewNode: pop %d found nothing", i)
				}
			}

			top := hpfq.Interior("root", 1,
				hpfq.Interior("agg", 3, hpfq.Leaf("a", 2, 0), hpfq.Leaf("b", 1, 1)),
				hpfq.Leaf("c", 1, 2))
			tree, err := hpfq.NewHierarchy(top, 1e6, algo)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				tree.Enqueue(0, hpfq.NewPacket(i%3, 8000))
			}
			for i := 0; i < 6; i++ {
				if tree.Dequeue(0) == nil {
					t.Fatalf("NewHierarchy: dequeue %d found nothing", i)
				}
			}

			d, err := hpfq.NewDataplane(algo, 1e9, hpfq.WithQueueCap(8))
			if err != nil {
				t.Fatal(err)
			}
			d.AddClass(0, 6e8)
			d.AddClass(1, 4e8)
			for i := 0; i < 4; i++ {
				if err := d.Ingest(i%2, make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			}
			pipe := hpfq.NewPacketPipe(8)
			if err := d.Start(pipe); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			pipe.Close()
			buf := make([]byte, 1500)
			for i := 0; i < 4; i++ {
				if _, err := pipe.ReadPacket(buf); err != nil {
					t.Fatalf("NewDataplane: datagram %d: %v", i, err)
				}
			}
		})
	}
}

// TestSentinelErrors: every construction failure is matchable with
// errors.Is against the exported sentinels.
func TestSentinelErrors(t *testing.T) {
	if _, err := hpfq.New("bogus", 1); !errors.Is(err, hpfq.ErrUnknownAlgorithm) {
		t.Errorf("New(bogus): %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := hpfq.NewNode("bogus", 1); !errors.Is(err, hpfq.ErrUnknownAlgorithm) {
		t.Errorf("NewNode(bogus): %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := hpfq.NewHierarchy(hpfq.Leaf("x", 1, 0), 1, hpfq.WF2QPlus); !errors.Is(err, hpfq.ErrBadTopology) {
		t.Errorf("NewHierarchy(leaf root): %v, want ErrBadTopology", err)
	}
	dup := hpfq.Interior("r", 1, hpfq.Leaf("a", 1, 0), hpfq.Leaf("b", 1, 0))
	if _, err := hpfq.NewHierarchy(dup, 1, hpfq.WF2QPlus); !errors.Is(err, hpfq.ErrBadTopology) {
		t.Errorf("NewHierarchy(dup session): %v, want ErrBadTopology", err)
	}
	if _, err := hpfq.NewHGPS(dup, 1); !errors.Is(err, hpfq.ErrBadTopology) {
		t.Errorf("NewHGPS(dup session): %v, want ErrBadTopology", err)
	}
	good := hpfq.Interior("r", 1, hpfq.Leaf("a", 1, 0), hpfq.Leaf("b", 1, 1))
	if _, err := hpfq.NewHierarchy(good, 1, "bogus"); !errors.Is(err, hpfq.ErrUnknownAlgorithm) {
		t.Errorf("NewHierarchy(bogus algo): %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := hpfq.NewHierarchy(good, 1, hpfq.WF2QPlus,
		hpfq.WithNodePolicy("r", hpfq.Policy{})); !errors.Is(err, hpfq.ErrNoNodeForm) {
		t.Errorf("NewHierarchy(nil node policy): %v, want ErrNoNodeForm", err)
	}
	if _, err := hpfq.New(hpfq.WF2QPlus, 1, hpfq.WithPolicy(hpfq.Policy{})); !errors.Is(err, hpfq.ErrNoFlatForm) {
		t.Errorf("New(nil flat policy): %v, want ErrNoFlatForm", err)
	}
}

// TestOptionsMetricsAndTracer: the options API end to end — every algorithm
// built with WithMetrics and WithTracer yields a conserved, populated
// snapshot and a coherent event stream.
func TestOptionsMetricsAndTracer(t *testing.T) {
	for _, algo := range hpfq.Algorithms() {
		ring := hpfq.NewRingTracer(64)
		s, err := hpfq.New(algo, 1e6, hpfq.WithMetrics(), hpfq.WithTracer(ring))
		if err != nil {
			t.Fatal(err)
		}
		if !s.MetricsEnabled() {
			t.Fatalf("%s: WithMetrics did not enable metrics", algo)
		}
		s.AddSession(0, 0.6e6)
		s.AddSession(1, 0.4e6)
		now := 0.0
		for i := 0; i < 10; i++ {
			s.Enqueue(now, hpfq.NewPacket(i%2, 8000))
		}
		for p := s.Dequeue(now); p != nil; p = s.Dequeue(now) {
			now += p.Length / 1e6
		}
		m := s.Snapshot()
		if !m.Enabled || m.Enqueued.Packets != 10 || m.Dequeued.Packets != 10 {
			t.Errorf("%s: snapshot %+v", algo, m)
		}
		if !m.Conserved() {
			t.Errorf("%s: conservation violated", algo)
		}
		sess, ok := m.Session(0)
		if !ok || sess.Enqueued.Packets != 5 {
			t.Errorf("%s: session 0 snapshot %+v", algo, sess)
		}
		if got := ring.Total(); got != 20 {
			t.Errorf("%s: traced %d events, want 20", algo, got)
		}
	}
}

// TestHierarchyObservability: metrics and traces through a hierarchy —
// root snapshot is conserved, interior nodes are visible by name, and the
// virtual-time trace fields are populated for a VT discipline.
func TestHierarchyObservability(t *testing.T) {
	top := hpfq.Interior("link", 1,
		hpfq.Interior("A1", 0.5,
			hpfq.Leaf("rt", 0.6, 0),
			hpfq.Leaf("be", 0.4, 1)),
		hpfq.Leaf("A2", 0.5, 2))
	ring := hpfq.NewRingTracer(4096)
	tree, err := hpfq.NewHierarchy(top, 45e6, hpfq.WF2QPlus,
		hpfq.WithMetrics(), hpfq.WithTracer(ring))
	if err != nil {
		t.Fatal(err)
	}
	sim := hpfq.NewSim()
	link := hpfq.NewLink(sim, 45e6, tree)
	for s := 0; s < 3; s++ {
		for i := 0; i < 4; i++ {
			link.Arrive(hpfq.NewPacket(s, hpfq.Bits8KB))
		}
	}
	sim.RunAll()

	m := tree.Snapshot()
	if m.Enqueued.Packets != 12 || m.Dequeued.Packets != 12 || !m.Conserved() {
		t.Errorf("tree snapshot %+v", m)
	}
	if sess, ok := m.Session(2); !ok || sess.Rate != 22.5e6 {
		t.Errorf("session 2 rate %+v", sess)
	}

	nodes := tree.NodeSnapshots()
	if len(nodes) != 2 {
		t.Fatalf("NodeSnapshots: %d nodes, want 2 (link, A1)", len(nodes))
	}
	if a1, ok := nodes["A1"]; !ok || a1.Dequeued.Packets != 8 {
		t.Errorf("A1 snapshot %+v", nodes["A1"])
	}

	var vtDequeues, a1Events int
	for _, ev := range ring.Events() {
		if ev.Type == hpfq.EventDequeue && ev.HasVT {
			vtDequeues++
		}
		if ev.Node == "A1" {
			a1Events++
		}
	}
	if vtDequeues == 0 {
		t.Error("no dequeue events carried virtual times")
	}
	if a1Events == 0 {
		t.Error("no events from interior node A1")
	}
}

// TestJSONLTrace: the stream tracer emits one valid JSON object per line.
func TestJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	jt := hpfq.NewJSONLTracer(&buf)
	s, err := hpfq.New(hpfq.WF2QPlus, 1e6, hpfq.WithTracer(jt))
	if err != nil {
		t.Fatal(err)
	}
	s.AddSession(0, 1e6)
	s.Enqueue(0, hpfq.NewPacket(0, 8000))
	s.Dequeue(0)
	if err := jt.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "{") || !strings.HasSuffix(ln, "}") {
			t.Errorf("not a JSON object line: %s", ln)
		}
	}
	if !strings.Contains(lines[1], "vfinish") {
		t.Errorf("dequeue line missing virtual times: %s", lines[1])
	}
}

// TestMixedHierarchy: WithNodePolicy lets callers mix disciplines —
// WF²Q+ near the root, DRR at a cheap leaf level.
func TestMixedHierarchy(t *testing.T) {
	top := hpfq.Interior("root", 1,
		hpfq.Interior("cheap", 0.5,
			hpfq.Leaf("a", 0.5, 0),
			hpfq.Leaf("b", 0.5, 1)),
		hpfq.Leaf("c", 0.5, 2))
	drr, ok := hpfq.PolicyByName(hpfq.DRR)
	if !ok {
		t.Fatal("no DRR policy")
	}
	tree, err := hpfq.NewHierarchy(top, 1e6, hpfq.WF2QPlus, hpfq.WithNodePolicy("cheap", drr))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tree.Nodes() {
		if want := map[string]string{"root": "WF2Q+", "cheap": "DRR"}[n.Name]; n.Session < 0 && n.Policy != want {
			t.Errorf("node %q runs %q, want %q", n.Name, n.Policy, want)
		}
	}
	sim := hpfq.NewSim()
	link := hpfq.NewLink(sim, 1e6, tree)
	served := map[int]float64{}
	link.OnDepart(func(p *hpfq.Packet) {
		served[p.Session] += p.Length
		link.Arrive(hpfq.NewPacket(p.Session, 8000))
	})
	for s := 0; s < 3; s++ {
		link.Arrive(hpfq.NewPacket(s, 8000))
		link.Arrive(hpfq.NewPacket(s, 8000))
	}
	sim.Run(10)
	for s, w := range map[int]float64{0: 0.25e6, 1: 0.25e6, 2: 0.5e6} {
		if got := served[s] / 10; math.Abs(got-w)/w > 0.06 {
			t.Errorf("session %d rate %.0f, want %.0f", s, got, w)
		}
	}
}

// TestPublicAPIDataplane pushes datagrams through the public data-plane
// facade over an in-memory pipe and checks delivery plus conservation.
func TestPublicAPIDataplane(t *testing.T) {
	if _, err := hpfq.NewDataplane(hpfq.Algorithm("nope"), 1e6); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := hpfq.NewDataplane(hpfq.WF2QPlus, 0); err == nil {
		t.Fatal("zero rate accepted")
	}

	d, err := hpfq.NewDataplane(hpfq.WF2QPlus, 1e9,
		hpfq.WithQueueCap(64), hpfq.WithByteCap(1<<20),
		hpfq.WithBurst(1e5), hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 7.5e8)
	d.AddClass(1, 2.5e8)

	pipe := hpfq.NewPacketPipe(64)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := d.Ingest(i%2, make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2048)
	for i := 0; i < n; i++ {
		if _, err := pipe.ReadPacket(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if m := d.Snapshot(); !m.Conserved() {
		t.Error("metrics not conserved")
	}
}

// TestPublicAPIDataplaneHierarchy drives the hierarchical data-plane through
// the same topology type the simulator uses.
func TestPublicAPIDataplaneHierarchy(t *testing.T) {
	top := hpfq.Interior("root", 1,
		hpfq.Interior("agg", 3,
			hpfq.Leaf("a", 2, 0),
			hpfq.Leaf("b", 1, 1)),
		hpfq.Leaf("c", 1, 2))
	d, err := hpfq.NewDataplane(hpfq.WF2QPlus, 1e9,
		hpfq.WithTopology(top), hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Classes()); got != 3 {
		t.Fatalf("classes = %d, want 3", got)
	}
	pipe := hpfq.NewPacketPipe(16)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}
	for _, class := range d.Classes() {
		if err := d.Ingest(class, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 256)
	for i := 0; i < 3; i++ {
		if _, err := pipe.ReadPacket(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicySelection exercises the first-class Policy API: WithPolicy
// overriding the algorithm, WithNodePolicy and ':policy' topology clauses
// pinning individual hierarchy nodes, and the Option type doubling as a
// DataplaneOption.
func TestPolicySelection(t *testing.T) {
	sp, ok := hpfq.PolicyByName(hpfq.SP)
	if !ok {
		t.Fatal("SP has no registered policy")
	}
	for _, algo := range hpfq.Algorithms() {
		if p, ok := hpfq.PolicyByName(algo); !ok || p.Name != string(algo) {
			t.Errorf("PolicyByName(%s) = %q, %v", algo, p.Name, ok)
		}
	}
	if _, ok := hpfq.PolicyByName("bogus"); ok {
		t.Error("PolicyByName(bogus) found a policy")
	}

	// WithPolicy overrides the algorithm argument of New.
	s, err := hpfq.New(hpfq.WF2QPlus, 1e6, hpfq.WithPolicy(sp))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SP" {
		t.Errorf("WithPolicy scheduler Name = %q, want SP", s.Name())
	}
	n, err := hpfq.NewNode(hpfq.WF2QPlus, 1e6, hpfq.WithPolicy(sp))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "SP" {
		t.Errorf("WithPolicy node Name = %q, want SP", n.Name())
	}

	// A ':policy' clause pins node A to strict priority: with both of A's
	// sessions continuously backlogged, every session-0 packet departs before
	// any session-1 packet.
	top, err := hpfq.ParseTopology("root=1(A=1:SP(a0=1:0,a1=1:1),B=1(b0=1:2,b1=1:3))")
	if err != nil {
		t.Fatal(err)
	}
	drive := func(tree *hpfq.Hierarchy) []int {
		for s := 0; s < 2; s++ {
			for i := 0; i < 4; i++ {
				tree.Enqueue(0, hpfq.NewPacket(s, 8000))
			}
		}
		var order []int
		now := 0.0
		for tree.Backlog() > 0 {
			p := tree.Dequeue(now)
			if p == nil {
				break
			}
			order = append(order, p.Session)
			now += p.Length / 1e6
		}
		return order
	}
	tree, err := hpfq.NewHierarchy(top, 1e6, hpfq.WF2QPlus)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	got := drive(tree)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topo ':SP' departures %v, want %v", got, want)
		}
	}

	// WithNodePolicy beats the annotation: an inverted strict priority on A
	// flips the order. (The very first session-0 packet still departs first:
	// it was committed on arrival, before session 1 was backlogged.)
	inv := hpfq.StrictPriorityPolicy(func(id int, _ float64) float64 { return -float64(id) })
	tree, err = hpfq.NewHierarchy(top, 1e6, hpfq.WF2QPlus, hpfq.WithNodePolicy("A", inv))
	if err != nil {
		t.Fatal(err)
	}
	want = []int{0, 1, 1, 1, 1, 0, 0, 0}
	got = drive(tree)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WithNodePolicy departures %v, want %v", got, want)
		}
	}

	// Option doubles as a DataplaneOption: policy and metrics flow through
	// NewDataplane unchanged.
	d, err := hpfq.NewDataplane(hpfq.WF2QPlus, 1e9,
		hpfq.WithPolicy(sp), hpfq.WithMetrics(), hpfq.WithQueueCap(16))
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 1e9)
	if m := d.Snapshot(); m.Name != "SP" {
		t.Errorf("dataplane scheduler Name = %q, want SP", m.Name)
	}
}

// TestDeadlinePolicies: EDFPolicy and LSTFPolicy rank by the caller's
// deadline or slack function. With equal rates and lengths the registry's
// L/r_i deadlines alternate the two flows; a function that gives flow 1
// a tenth of that deadline (or slack) sends all of flow 1 first.
func TestDeadlinePolicies(t *testing.T) {
	departures := func(p hpfq.Policy) []int {
		s, err := hpfq.New(hpfq.WF2QPlus, 1e6, hpfq.WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		s.AddSession(0, 0.5e6)
		s.AddSession(1, 0.5e6)
		for id := 0; id < 2; id++ {
			for i := 0; i < 3; i++ {
				s.Enqueue(0, hpfq.NewPacket(id, 8000))
			}
		}
		var order []int
		for p := s.Dequeue(0); p != nil; p = s.Dequeue(0) {
			order = append(order, p.Session)
		}
		return order
	}
	urgent1 := func(id int, rate, length float64) float64 {
		if id == 1 {
			return length / rate / 10
		}
		return length / rate
	}
	alternate, flow1First := []int{0, 1, 0, 1, 0, 1}, []int{1, 1, 1, 0, 0, 0}
	for _, tc := range []struct {
		name   string
		pol    hpfq.Policy
		custom hpfq.Policy
	}{
		{"EDF", mustPolicy(t, hpfq.EDF), hpfq.EDFPolicy(urgent1)},
		{"LSTF", mustPolicy(t, hpfq.LSTF), hpfq.LSTFPolicy(urgent1)},
	} {
		if got := departures(tc.pol); !slices.Equal(got, alternate) {
			t.Errorf("%s registry policy departures %v, want %v", tc.name, got, alternate)
		}
		if got := departures(tc.custom); !slices.Equal(got, flow1First) {
			t.Errorf("%s with a tighter flow-1 function departures %v, want %v", tc.name, got, flow1First)
		}
	}
}

func mustPolicy(t *testing.T, a hpfq.Algorithm) hpfq.Policy {
	t.Helper()
	p, ok := hpfq.PolicyByName(a)
	if !ok {
		t.Fatalf("%s has no registered policy", a)
	}
	return p
}

// TestNamedTracer: NamedTracer stamps every event with its node name on
// the way to the wrapped tracer.
func TestNamedTracer(t *testing.T) {
	ring := hpfq.NewRingTracer(16)
	s, err := hpfq.New(hpfq.WF2QPlus, 1e6, hpfq.WithTracer(hpfq.NamedTracer("edge", ring)))
	if err != nil {
		t.Fatal(err)
	}
	s.AddSession(0, 1e6)
	s.Enqueue(0, hpfq.NewPacket(0, 8000))
	s.Dequeue(0)
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want an enqueue and a dequeue", len(evs))
	}
	for _, ev := range evs {
		if ev.Node != "edge" {
			t.Errorf("%v event stamped node %q, want edge", ev.Type, ev.Node)
		}
	}
}

// TestFlowKey: FlowKey is 64-bit FNV-1a, so equal flow bytes always pick
// the same shard and a gateway's keys match any FNV-1a implementation.
func TestFlowKey(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("a"), []byte("10.0.0.1:5000")} {
		h := fnv.New64a()
		h.Write(b)
		if got, want := hpfq.FlowKey(b), h.Sum64(); got != want {
			t.Errorf("FlowKey(%q) = %#x, want FNV-1a %#x", b, got, want)
		}
	}
}

// TestPacketPipePool: a pipe built on a caller's pool copies each written
// datagram into a buffer from that pool and returns the buffer when the
// datagram is read, so the pool's gets and puts balance.
func TestPacketPipePool(t *testing.T) {
	pool := hpfq.NewBufferPool(64)
	pipe := hpfq.NewPacketPipePool(4, pool)
	in := []hpfq.PacketDatagram{{B: []byte("one")}, {B: []byte("two")}, {B: []byte("three")}}
	if n, err := pipe.WriteBatch(in); n != len(in) || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	if st := pool.Stats(); st.Gets != 3 || st.Puts != 0 {
		t.Fatalf("after writing 3 datagrams pool stats %+v, want 3 gets and no puts", st)
	}
	buf := make([]byte, 64)
	for _, d := range in {
		n, err := pipe.ReadPacket(buf)
		if err != nil || string(buf[:n]) != string(d.B) {
			t.Fatalf("ReadPacket = %q, %v; want %q", buf[:n], err, d.B)
		}
	}
	if st := pool.Stats(); st.Puts != 3 {
		t.Errorf("after reading 3 datagrams pool stats %+v, want 3 puts", st)
	}
}
