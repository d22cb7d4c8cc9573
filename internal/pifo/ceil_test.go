package pifo

import (
	"testing"

	"hpfq/internal/packet"
)

// TestCeilReleaseNoCatchUp: a flow held by its ceiling re-enters the PIFO
// as newly backlogged, S ← max(F, V), so the service it missed while capped
// earns it no burst afterwards — whether its cap is lifted outright or
// raised so that its release time comes, and whether the policy stamps at
// the head (WF²Q+) or at arrival (SCFQ, SFQ, WFQ). Flows 0 and 1 share
// the link equally; flow 0 is capped at a tenth of the link for 3 s. Its
// next departures must then interleave with flow 1's.
func TestCeilReleaseNoCatchUp(t *testing.T) {
	const (
		rate = 1e6
		size = 8000.0 // bits
	)
	for _, c := range []struct {
		policy string
		after  float64
	}{
		{"WF2Q+", 0}, {"WF2Q+", 10 * rate},
		{"SCFQ", 0}, {"SCFQ", 10 * rate}, {"SFQ", 0}, {"WFQ", 10 * rate},
	} {
		f, _ := Lookup(c.policy)
		s := NewSched(f, rate)
		s.AddSession(0, rate/2)
		s.AddSession(1, rate/2)
		if err := s.SetCeil(0, rate/10, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			s.Enqueue(0, &packet.Packet{Session: 0, Length: size, Seq: int64(i)})
			s.Enqueue(0, &packet.Packet{Session: 1, Length: size, Seq: int64(i)})
		}
		now, sent := 0.0, map[int]int{}
		serve := func(n int) []int {
			var order []int
			for ; n > 0; n-- {
				p := s.Dequeue(now)
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
		if n := sent[0]; n > 55 {
			t.Fatalf("%s: capped flow sent %d packets in 3 s, its ceiling allows 54", c.policy, n)
		}
		if err := s.SetCeil(0, c.after, now); err != nil {
			t.Fatal(err)
		}
		order := serve(40)
		run := 0
		for _, id := range order {
			if id != 0 {
				run = 0
			} else if run++; run > 2 {
				t.Fatalf("%s, ceil set to %g: released flow ran ahead on stale tags: %v", c.policy, c.after, order)
			}
		}
	}
}
