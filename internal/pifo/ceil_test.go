package pifo

import "testing"

// oneLevel serves per-child backlogs of equal-size packets through one Node
// and an optional Shaper, in the order a one-level hier.Tree uses them: the
// child served last re-enters as a continuation at the next serve, unless
// its ceiling holds it; then held children whose release time has come
// re-enter as newly backlogged; then the node pops and the departure is
// charged.
type oneLevel struct {
	n       *Node
	shape   *Shaper
	size    float64
	backlog []int
	last    int // child served by the previous serve, -1 if none
}

func newOneLevel(n *Node, shape *Shaper, size float64, children int) *oneLevel {
	return &oneLevel{n: n, shape: shape, size: size, backlog: make([]int, children), last: -1}
}

func (o *oneLevel) push(id int, cont bool, now float64) {
	if o.shape != nil && o.shape.Hold(id, now) {
		return
	}
	o.n.Push(id, o.size, cont)
}

func (o *oneLevel) enqueue(id int, now float64) {
	if o.backlog[id]++; o.backlog[id] == 1 {
		o.push(id, false, now)
	}
}

func (o *oneLevel) serve(now float64) (int, bool) {
	if id := o.last; id >= 0 {
		o.last = -1
		if o.backlog[id]--; o.backlog[id] > 0 {
			o.push(id, true, now)
		}
	}
	if o.shape != nil {
		for id, ok := o.shape.Due(now); ok; id, ok = o.shape.Due(now) {
			o.push(id, false, now)
		}
	}
	id, ok := o.n.Pop()
	if !ok {
		return -1, false
	}
	o.shape.Charge(id, o.size, now)
	o.last = id
	return id, true
}

// drainAll serves until nothing is backlogged, one packet time per serve at
// the 1 Mb/s the tests use.
func (o *oneLevel) drainAll(now float64) []int {
	var order []int
	for {
		id, ok := o.serve(now)
		if !ok {
			return order
		}
		order = append(order, id)
		now += o.size / 1e6
	}
}

// TestCeilReleaseNoCatchUp: a flow held by its ceiling re-enters the node's
// PIFO as newly backlogged, S ← max(F, V), so the service it missed while
// capped earns it no burst afterwards — whether its cap is lifted outright
// or raised so that its release time comes. The flat scheduler of an
// engine is a one-level Node with a Shaper; this pins the pair's contract
// under the node forms of WF²Q+, SCFQ, SFQ and WFQ. Flows 0 and 1 share
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
		n := NewNode(f, rate)
		n.AddChild(0, rate/2)
		n.AddChild(1, rate/2)
		shape := &Shaper{}
		shape.Set(0, rate/10, 0)
		o := newOneLevel(n, shape, size, 2)
		for i := 0; i < 400; i++ {
			o.enqueue(0, 0)
			o.enqueue(1, 0)
		}
		now, sent := 0.0, map[int]int{}
		serve := func(k int) []int {
			var order []int
			for ; k > 0; k-- {
				id, ok := o.serve(now)
				if !ok {
					t.Fatalf("%s: nothing to send at %.3fs with a backlog", c.policy, now)
				}
				order = append(order, id)
				sent[id]++
				now += size / rate
			}
			return order
		}
		serve(375) // 3 s of link time
		// ceil·3 s + BucketDepth(ceil) + one packet ≈ 54.9 packets.
		if k := sent[0]; k > 55 {
			t.Fatalf("%s: capped flow sent %d packets in 3 s, its ceiling allows 54", c.policy, k)
		}
		if shape.Set(0, c.after, now) {
			o.push(0, false, now)
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
