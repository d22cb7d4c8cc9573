package sched

import (
	"math"
	"math/rand"
	"testing"

	"hpfq/internal/des"
	"hpfq/internal/fluid"
	"hpfq/internal/netsim"
	"hpfq/internal/packet"
)

var allAlgos = []string{"WF2Q+", "WFQ", "WF2Q", "SCFQ", "SFQ", "DRR", "FIFO", "SP", "EDF", "SRPT", "LSTF"}
var fairAlgos = []string{"WF2Q+", "WFQ", "WF2Q", "SCFQ", "SFQ", "DRR"}

func TestRegistry(t *testing.T) {
	names := Algorithms()
	if len(names) != len(allAlgos) {
		t.Fatalf("registry has %d algorithms: %v", len(names), names)
	}
	for _, name := range allAlgos {
		s, err := New(name, 1e6)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() == "" {
			t.Errorf("%s: empty Name", name)
		}
		if _, err := NewNode(name, 1e6); err != nil {
			t.Errorf("NewNode(%q): %v", name, err)
		}
	}
	if _, err := New("nope", 1); err == nil {
		t.Error("New of unknown algorithm should error")
	}
	if _, err := NewNode("nope", 1); err == nil {
		t.Error("NewNode of unknown algorithm should error")
	}
}

// TestContract runs every algorithm through a random workload and checks
// the universal scheduler invariants: conservation (every packet departs
// exactly once), per-session FIFO order, and work conservation (the link
// never idles while packets are queued).
func TestContract(t *testing.T) {
	for _, name := range allAlgos {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, 100)
			if err != nil {
				t.Fatal(err)
			}
			s.EnableMetrics()
			const nsess = 6
			for i := 0; i < nsess; i++ {
				s.AddSession(i, 100/float64(nsess))
			}
			sim := des.New()
			link := netsim.NewLink(sim, 100, s)
			var out []packet.Packet
			link.OnDepart(func(p *packet.Packet) { out = append(out, *p) })

			rng := rand.New(rand.NewSource(21))
			const npkts = 800
			seqs := make([]int64, nsess)
			now := 0.0
			var totalBits float64
			var lastArrival float64
			for i := 0; i < npkts; i++ {
				now += rng.ExpFloat64() * 0.05
				sess := rng.Intn(nsess)
				length := float64(1 + rng.Intn(12))
				totalBits += length
				at, sq := now, seqs[sess]
				seqs[sess]++
				lastArrival = at
				sim.At(at, func() {
					p := packet.New(sess, length)
					p.Seq = sq
					link.Arrive(p)
				})
			}
			sim.RunAll()

			if len(out) != npkts {
				t.Fatalf("%d departures, want %d", len(out), npkts)
			}
			next := make([]int64, nsess)
			for _, p := range out {
				if p.Seq != next[p.Session] {
					t.Fatalf("session %d departed seq %d, want %d", p.Session, p.Seq, next[p.Session])
				}
				next[p.Session]++
			}
			// Work conservation: total completion time ≥ work/rate and the
			// link transmitted all bits.
			if link.Work() != totalBits {
				t.Errorf("link work %g, want %g", link.Work(), totalBits)
			}
			if last := out[len(out)-1].Depart; last < totalBits/100-1e-9 {
				t.Errorf("finished at %g, faster than the link allows (%g)", last, totalBits/100)
			}
			_ = lastArrival
			if s.Backlog() != 0 {
				t.Errorf("backlog %d after drain", s.Backlog())
			}
			// The collector must agree with the packet flow: every packet
			// accepted was either dequeued or is still queued (here: none),
			// at the server and at every session.
			m := s.Snapshot()
			if !m.Enabled {
				t.Fatal("snapshot not enabled after EnableMetrics")
			}
			if m.Enqueued.Packets != npkts || m.Dequeued.Packets != npkts {
				t.Errorf("snapshot counted %d in / %d out, want %d / %d",
					m.Enqueued.Packets, m.Dequeued.Packets, npkts, npkts)
			}
			if m.QueueLen != 0 {
				t.Errorf("snapshot queue length %d after drain", m.QueueLen)
			}
			if !m.Conserved() {
				t.Errorf("conservation violated: %+v", m)
			}
			if m.Enqueued.Bits != totalBits || m.Dequeued.Bits != totalBits {
				t.Errorf("snapshot bits %g in / %g out, want %g",
					m.Enqueued.Bits, m.Dequeued.Bits, totalBits)
			}
			if len(m.Sessions) != nsess {
				t.Fatalf("snapshot has %d sessions, want %d", len(m.Sessions), nsess)
			}
			var sessPkts int64
			for _, sm := range m.Sessions {
				sessPkts += sm.Dequeued.Packets
				if sm.Delay.Count != sm.Dequeued.Packets {
					t.Errorf("session %d: %d delay samples for %d dequeues",
						sm.ID, sm.Delay.Count, sm.Dequeued.Packets)
				}
				if sm.Rate != 100/float64(nsess) {
					t.Errorf("session %d rate %g", sm.ID, sm.Rate)
				}
			}
			if sessPkts != npkts {
				t.Errorf("per-session dequeues sum to %d, want %d", sessPkts, npkts)
			}
		})
	}
}

// TestProportionalShares: every fair algorithm delivers long-run throughput
// proportional to session rates when all sessions are greedy.
func TestProportionalShares(t *testing.T) {
	rates := []float64{0.5e6, 0.3e6, 0.15e6, 0.05e6}
	for _, name := range fairAlgos {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rates {
				s.AddSession(i, r)
			}
			sim := des.New()
			link := netsim.NewLink(sim, 1e6, s)
			served := make([]float64, len(rates))
			link.OnDepart(func(p *packet.Packet) {
				served[p.Session] += p.Length
				link.Arrive(packet.New(p.Session, 8000))
			})
			sim.At(0, func() {
				for i := range rates {
					link.Arrive(packet.New(i, 8000))
					link.Arrive(packet.New(i, 8000))
				}
			})
			sim.Run(20)
			for i, r := range rates {
				got := served[i] / 20
				if math.Abs(got-r)/r > 0.05 {
					t.Errorf("session %d rate %.0f, want %.0f (±5%%)", i, got, r)
				}
			}
		})
	}
}

// TestIsolation: a misbehaving session cannot take more than its share +
// slack from conforming sessions under any fair algorithm.
func TestIsolation(t *testing.T) {
	for _, name := range fairAlgos {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			s.AddSession(0, 0.5e6) // conforming CBR at its rate
			s.AddSession(1, 0.5e6) // flooding at 3× its rate
			sim := des.New()
			link := netsim.NewLink(sim, 1e6, s)
			served := make([]float64, 2)
			link.OnDepart(func(p *packet.Packet) { served[p.Session] += p.Length })
			// Session 0: exactly paced at 0.5 Mbps.
			var src0 func()
			next0 := 0.0
			src0 = func() {
				link.Arrive(packet.New(0, 8000))
				next0 += 8000 / 0.5e6
				if next0 < 20 {
					sim.At(next0, src0)
				}
			}
			sim.At(0, src0)
			// Session 1: 1.5 Mbps flood.
			var src1 func()
			next1 := 0.0
			src1 = func() {
				link.Arrive(packet.New(1, 8000))
				next1 += 8000 / 1.5e6
				if next1 < 20 {
					sim.At(next1, src1)
				}
			}
			sim.At(0, src1)
			sim.Run(20)
			if got := served[0] / 20; got < 0.495e6 {
				t.Errorf("conforming session got %.0f bps, want ~500000", got)
			}
			if got := served[1] / 20; got > 0.52e6 {
				t.Errorf("flooding session got %.0f bps, want <= ~510000", got)
			}
		})
	}
}

// TestWFQDelayWithinOnePacketOfGPS: Parekh & Gallager — WFQ departure times
// never exceed the GPS fluid finish times by more than L_max/r.
func TestWFQDelayWithinOnePacketOfGPS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(6)
		rate := 100.0
		s := NewWFQ(rate)
		g := newRefGPS(rate, n, rng, s)
		compareWithGPS(t, "WFQ", s, g, rng, n, rate)
	}
}

// TestWF2QDelayWithinOnePacketOfGPS: same bound holds for WF²Q (Theorem 3).
func TestWF2QDelayWithinOnePacketOfGPS(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(6)
		rate := 100.0
		s := NewWF2Q(rate)
		g := newRefGPS(rate, n, rng, s)
		compareWithGPS(t, "WF2Q", s, g, rng, n, rate)
	}
}

type refGPS struct {
	rates []float64
}

func newRefGPS(rate float64, n int, rng *rand.Rand, s Scheduler) *refGPS {
	g := &refGPS{rates: make([]float64, n)}
	var sum float64
	for i := range g.rates {
		g.rates[i] = 0.1 + rng.Float64()
		sum += g.rates[i]
	}
	for i := range g.rates {
		g.rates[i] = rate * g.rates[i] / sum
		s.AddSession(i, g.rates[i])
	}
	return g
}

func compareWithGPS(t *testing.T, name string, s Scheduler, g *refGPS, rng *rand.Rand, n int, rate float64) {
	t.Helper()
	// Shared workload.
	type arrival struct {
		at     float64
		sess   int
		length float64
		seq    int64
	}
	var arrivals []arrival
	now := 0.0
	seqs := make([]int64, n)
	for i := 0; i < 400; i++ {
		now += rng.ExpFloat64() * 0.02
		sess := rng.Intn(n)
		arrivals = append(arrivals, arrival{now, sess, float64(1 + rng.Intn(10)), seqs[sess]})
		seqs[sess]++
	}

	// GPS fluid reference.
	fl := fluid.NewGPS(rate)
	for i, r := range g.rates {
		fl.AddSession(i, r)
	}
	for _, a := range arrivals {
		p := packet.New(a.sess, a.length)
		p.Seq = a.seq
		fl.Arrive(a.at, p)
	}
	fl.Drain()
	gpsFinish := make(map[[2]int64]float64)
	for _, d := range fl.Departures() {
		gpsFinish[[2]int64{int64(d.Session), d.Seq}] = d.Time
	}

	// Packet system.
	sim := des.New()
	link := netsim.NewLink(sim, rate, s)
	var maxLate float64
	var Lmax float64
	for _, a := range arrivals {
		if a.length > Lmax {
			Lmax = a.length
		}
	}
	link.OnDepart(func(p *packet.Packet) {
		key := [2]int64{int64(p.Session), p.Seq}
		if late := p.Depart - gpsFinish[key]; late > maxLate {
			maxLate = late
		}
	})
	for _, a := range arrivals {
		a := a
		sim.At(a.at, func() {
			p := packet.New(a.sess, a.length)
			p.Seq = a.seq
			link.Arrive(p)
		})
	}
	sim.RunAll()

	if maxLate > Lmax/rate+1e-9 {
		t.Errorf("%s: packet finished %.6f after GPS, bound is L_max/r = %.6f",
			name, maxLate, Lmax/rate)
	}
}
