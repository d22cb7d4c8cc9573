// Benchmark harness: one benchmark per table/figure of the paper (see
// EXPERIMENTS.md and DESIGN.md §3), plus the §3.4 complexity-claim
// microbenchmarks. Regenerate everything with
//
//	go test -bench=. -benchmem .
//
// The Benchmark* wall-clock numbers measure this implementation's cost of
// regenerating each experiment; the experiment results themselves are
// printed by cmd/hpfqsim and asserted in the test suite.
package hpfq_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hpfq/internal/des"
	"hpfq/internal/experiments"
	"hpfq/internal/hier"
	"hpfq/internal/netsim"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/sched"
	"hpfq/internal/topo"
)

// BenchmarkFig2 (E1): the Fig. 2 service-order example across GPS, WFQ,
// WF²Q and WF²Q+.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2()
		if res.LeadingRun("WFQ") < 9 {
			b.Fatal("unexpected WFQ order")
		}
	}
}

// BenchmarkBurst (E3, §3.1): the 1001-class 100 Mbps example (paper: WFQ
// 120 ms vs GPS 0.4 ms).
func BenchmarkBurst(b *testing.B) {
	for _, algo := range []string{"WFQ", "WF2Q", "WF2Q+"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunBurst(algo, 1001); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchDelay(b *testing.B, sc experiments.Scenario) {
	for _, algo := range []string{"WFQ", "WF2Q+"} {
		b.Run("H-"+algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunDelay(algo, sc, 3, 1)
				if err != nil {
					b.Fatal(err)
				}
				if res.Delays.Count() == 0 {
					b.Fatal("no RT-1 packets")
				}
			}
		})
	}
}

// BenchmarkFig4 (E4): scenario 1 delay experiment (nominal rates).
func BenchmarkFig4(b *testing.B) { benchDelay(b, experiments.ScenarioNominal) }

// BenchmarkFig5 (E5): the service-lag curves come from the same scenario-1
// run; this bench additionally extracts the lag.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDelay("WFQ", experiments.ScenarioNominal, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Curve.MaxLag() == 0 {
			b.Fatal("no lag measured")
		}
	}
}

// BenchmarkFig6 (E6): scenario 2 (overloaded Poisson cross traffic).
func BenchmarkFig6(b *testing.B) { benchDelay(b, experiments.ScenarioOverload) }

// BenchmarkFig7 (E7): scenario 3 (overload + constant/train cross traffic).
func BenchmarkFig7(b *testing.B) { benchDelay(b, experiments.ScenarioOverloadCS) }

// BenchmarkFig9 (E8): the §5.2 TCP link-sharing experiment over the
// Fig. 8(b) schedule.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9("WF2Q+", 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered[0] == 0 {
			b.Fatal("TCP1 delivered nothing")
		}
	}
}

// BenchmarkWFI (E9): the WFI measurement at N=64 per algorithm — the
// Theorem 3/4 table.
func BenchmarkWFI(b *testing.B) {
	for _, algo := range []string{"WFQ", "SCFQ", "SFQ", "DRR", "WF2Q", "WF2Q+"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunWFISweep(algo, []int{64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBound (E10): the Corollary 2 delay-bound check.
func BenchmarkBound(b *testing.B) {
	for _, algo := range []string{"WF2Q+", "WFQ"} {
		b.Run("H-"+algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunBound(algo, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedOps (E11, §3.4): per-packet scheduling cost vs the number
// of backlogged sessions. WF²Q+ stays O(log N); WFQ and WF²Q pay the GPS
// clock, whose worst case is O(N).
func BenchmarkSchedOps(b *testing.B) {
	for _, algo := range []string{"WF2Q+", "WFQ", "WF2Q", "SCFQ", "SFQ", "DRR"} {
		for _, n := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/N=%d", algo, n), func(b *testing.B) {
				s, err := sched.New(algo, 1e9)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < n; i++ {
					s.AddSession(i, 1e9/float64(n))
				}
				// Pre-fill every session with two packets, then cycle:
				// dequeue one, enqueue one on the same session.
				now := 0.0
				for i := 0; i < n; i++ {
					s.Enqueue(now, packet.New(i, 8000))
					s.Enqueue(now, packet.New(i, 8000))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := s.Dequeue(now)
					now += 8000 / 1e9
					p2 := packet.New(p.Session, 8000)
					s.Enqueue(now, p2)
					_ = rng
				}
			})
		}
	}
}

// BenchmarkSchedOpsBursty stresses the GPS-clock worst case: sessions
// alternate between idle and backlogged so the fluid system's
// session-departure breakpoints pile up (the O(N) advance the paper
// attributes to WFQ/WF²Q and removes in WF²Q+).
func BenchmarkSchedOpsBursty(b *testing.B) {
	for _, algo := range []string{"WF2Q+", "WFQ", "WF2Q"} {
		for _, n := range []int{256, 4096} {
			b.Run(fmt.Sprintf("%s/N=%d", algo, n), func(b *testing.B) {
				s, err := sched.New(algo, 1e9)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					s.AddSession(i, 1e9/float64(n))
				}
				now := 0.0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A whole batch arrives, drains completely (every
					// session leaves the GPS backlog), repeat.
					if s.Backlog() == 0 {
						b.StopTimer()
						now += 1.0
						b.StartTimer()
						for j := 0; j < n; j++ {
							s.Enqueue(now, packet.New(j, 8000))
						}
					}
					s.Dequeue(now)
					now += 8000 / 1e9
				}
			})
		}
	}
}

// BenchmarkHierarchyDepth: per-packet cost of H-WF²Q+ vs tree depth — each
// level adds one O(log N) node decision (Theorem 1's per-level WFI sum has
// a per-level time cost mirror).
func BenchmarkHierarchyDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			// Chain of interior nodes, 4 leaves at each level.
			sess := 0
			build := func() *topo.Node { return nil }
			_ = build
			var mk func(d int) *topo.Node
			mk = func(d int) *topo.Node {
				kids := []*topo.Node{}
				for i := 0; i < 3; i++ {
					kids = append(kids, topo.Leaf(fmt.Sprintf("l%d", sess), 1, sess))
					sess++
				}
				if d > 1 {
					kids = append(kids, mk(d-1))
				}
				return topo.Interior(fmt.Sprintf("n%d", d), 1, kids...)
			}
			top := mk(depth)
			tree, err := hier.New(top, 1e9, "WF2Q+")
			if err != nil {
				b.Fatal(err)
			}
			sim := des.New()
			link := netsim.NewLink(sim, 1e9, tree)
			nsess := sess
			link.OnDepart(func(p *packet.Packet) {
				link.Arrive(packet.New(p.Session, 8000))
			})
			for i := 0; i < nsess; i++ {
				link.Arrive(packet.New(i, 8000))
				link.Arrive(packet.New(i, 8000))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// BenchmarkAblation isolates the paper's two design choices. The algorithm
// matrix factors them directly:
//
//   - eligibility (SEFF vs SFF) with the same exact clock: WF2Q vs WFQ —
//     the WFI difference (E9) is attributable to SEFF alone;
//   - the clock (V_WF2Q+ vs V_GPS) with the same SEFF policy: WF2Q+ vs
//     WF2Q — the complexity difference (E11) is attributable to the clock
//     alone. This bench measures that second axis head to head.
func BenchmarkAblation(b *testing.B) {
	for _, algo := range []string{"WF2Q", "WF2Q+"} {
		b.Run(algo, func(b *testing.B) {
			s, err := sched.New(algo, 1e9)
			if err != nil {
				b.Fatal(err)
			}
			const n = 512
			for i := 0; i < n; i++ {
				s.AddSession(i, 1e9/n)
			}
			for i := 0; i < n; i++ {
				s.Enqueue(0, packet.New(i, 8000))
				s.Enqueue(0, packet.New(i, 8000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := s.Dequeue(0)
				s.Enqueue(0, packet.New(p.Session, 8000))
			}
		})
	}
}

// BenchmarkMetricsOverhead prices the observability layer on the WF²Q+ hot
// path: the same enqueue/dequeue cycle with the collector disabled (the
// default — one branch per record call), with metrics accumulating, and with
// metrics plus a ring tracer. The disabled path is the one every
// uninstrumented simulation pays and must stay within noise (≤5%) of the
// pre-observability baseline.
func BenchmarkMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, configure func(sched.Scheduler)) {
		s, err := sched.New("WF2Q+", 1e9)
		if err != nil {
			b.Fatal(err)
		}
		const n = 64
		for i := 0; i < n; i++ {
			s.AddSession(i, 1e9/n)
		}
		configure(s)
		for i := 0; i < n; i++ {
			s.Enqueue(0, packet.New(i, 8000))
		}
		b.ReportAllocs()
		b.ResetTimer()
		now := 0.0
		for i := 0; i < b.N; i++ {
			p := s.Dequeue(now)
			now += 8000 / 1e9
			s.Enqueue(now, packet.New(p.Session, 8000))
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func(sched.Scheduler) {})
	})
	b.Run("metrics", func(b *testing.B) {
		run(b, func(s sched.Scheduler) { s.EnableMetrics() })
	})
	b.Run("metrics+trace", func(b *testing.B) {
		run(b, func(s sched.Scheduler) {
			s.EnableMetrics()
			s.SetTracer(obs.NewRingTracer(1024))
		})
	})
}

// BenchmarkEnqueueDequeue is the core WF²Q+ hot path in isolation.
func BenchmarkEnqueueDequeue(b *testing.B) {
	s, _ := sched.New("WF2Q+", 1e9)
	const n = 64
	for i := 0; i < n; i++ {
		s.AddSession(i, 1e9/n)
	}
	for i := 0; i < n; i++ {
		s.Enqueue(0, packet.New(i, 8000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.Dequeue(0)
		s.Enqueue(0, packet.New(p.Session, 8000))
	}
}
