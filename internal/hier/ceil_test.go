package hier

import (
	"testing"

	"hpfq/internal/packet"
	"hpfq/internal/topo"
)

// TestCeilReleaseNoCatchUp: a leaf held by its ceiling re-enters as newly
// backlogged, S ← max(F, V), so the service it missed while capped earns it
// no burst afterwards — whether its cap is lifted outright or raised so that
// its release time comes, whatever the node policy, in a topology tree and
// in the one-level flat tree, and whether the cap was set before or after
// the backlog arrived (every node stamps a child's head as it enters, so no
// tag goes stale while held). Leaves a and b share the link equally; a is
// capped at a tenth of the link for 3 s. Its next departures must then
// interleave with b's instead of running ahead on stale tags.
func TestCeilReleaseNoCatchUp(t *testing.T) {
	const (
		rate = 1e6
		size = 8000.0 // bits
	)
	for _, policy := range []string{"WF2Q+", "SCFQ", "SFQ", "WFQ"} {
		for _, flat := range []bool{false, true} {
			for _, capFirst := range []bool{false, true} {
				for _, after := range []float64{0, 10 * rate} {
					tr := flatTree(t, policy, rate, rate/2, rate/2)
					if !flat {
						var err error
						tr, err = New(topo.Interior("root", 1, topo.Leaf("a", 1, 0), topo.Leaf("b", 1, 1)), rate, policy)
						if err != nil {
							t.Fatal(err)
						}
					}
					if capFirst {
						tr.SetCeil(0, rate/10, 0)
					}
					for i := 0; i < 400; i++ {
						tr.Enqueue(0, &packet.Packet{Session: 0, Length: size, Seq: int64(i)})
						tr.Enqueue(0, &packet.Packet{Session: 1, Length: size, Seq: int64(i)})
					}
					if !capFirst {
						tr.SetCeil(0, rate/10, 0)
					}
					now, sent := 0.0, map[int]int{}
					serve := func(n int) []int {
						var order []int
						for ; n > 0; n-- {
							p := tr.Dequeue(now)
							if p == nil {
								t.Fatalf("%s: nothing to send at %.3fs with a backlog", policy, now)
							}
							order = append(order, p.Session)
							sent[p.Session]++
							now += size / rate
						}
						return order
					}
					serve(375) // 3 s of link time
					// ceil·3 s + BucketDepth(ceil) + one packet ≈ 54.9 packets.
					if a := sent[0]; a > 55 {
						t.Fatalf("%s (flat %v): capped leaf sent %d packets in 3 s, its ceiling allows 54", policy, flat, a)
					}
					tr.SetCeil(0, after, now)
					run := 0
					for _, s := range serve(40) {
						if s != 0 {
							run = 0
						} else if run++; run > 2 {
							t.Fatalf("%s (flat %v, cap first %v), ceil set to %g: released leaf ran ahead on stale tags", policy, flat, capFirst, after)
						}
					}
				}
			}
		}
	}
}
