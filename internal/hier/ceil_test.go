package hier

import (
	"testing"

	"hpfq/internal/packet"
	"hpfq/internal/topo"
)

// TestCeilReleaseNoCatchUp: a leaf held by its ceiling re-enters as newly
// backlogged, S ← max(F, V), so the service it missed while capped earns it
// no burst afterwards — whether its cap is lifted outright or raised so that
// its release time comes. Leaves a and b share the link equally; a is
// capped at a tenth of the link for 3 s. Its next departures must then
// interleave with b's instead of running ahead on stale tags.
func TestCeilReleaseNoCatchUp(t *testing.T) {
	const (
		rate = 1e6
		size = 8000.0 // bits
	)
	for _, after := range []float64{0, 10 * rate} {
		tr, err := New(topo.Interior("root", 1, topo.Leaf("a", 1, 0), topo.Leaf("b", 1, 1)), rate, "WF2Q+")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			tr.Enqueue(0, &packet.Packet{Session: 0, Length: size, Seq: int64(i)})
			tr.Enqueue(0, &packet.Packet{Session: 1, Length: size, Seq: int64(i)})
		}
		if err := tr.SetCeil(0, rate/10, 0); err != nil {
			t.Fatal(err)
		}
		now, sent := 0.0, map[int]int{}
		serve := func(n int) []int {
			var order []int
			for ; n > 0; n-- {
				p := tr.Dequeue(now)
				if p == nil {
					t.Fatalf("nothing to send at %.3fs with a backlog", now)
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
			t.Fatalf("capped leaf sent %d packets in 3 s, its ceiling allows 54", a)
		}
		if err := tr.SetCeil(0, after, now); err != nil {
			t.Fatal(err)
		}
		order := serve(40)
		run := 0
		for _, s := range order {
			if s != 0 {
				run = 0
			} else if run++; run > 2 {
				t.Fatalf("ceil set to %g: released leaf ran ahead on stale tags: %v", after, order)
			}
		}
	}
}
