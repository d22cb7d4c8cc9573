package hier

import (
	"fmt"
	"testing"

	"hpfq/internal/packet"
	"hpfq/internal/topo"
)

const (
	deepFanout  = 16
	deepLeaves  = deepFanout * deepFanout * deepFanout
	deepBacklog = 1024
)

// deepTreeTopology is perfbench's engine_deep tree: 16×16×16 equal shares,
// leaf l<i>_<j>_<k> carrying session (i·16+j)·16+k.
func deepTreeTopology() *topo.Node {
	groups := make([]*topo.Node, deepFanout)
	for i := range groups {
		subs := make([]*topo.Node, deepFanout)
		for j := range subs {
			leaves := make([]*topo.Node, deepFanout)
			for k := range leaves {
				leaves[k] = topo.Leaf(fmt.Sprintf("l%d_%d_%d", i, j, k), 1, (i*deepFanout+j)*deepFanout+k)
			}
			subs[j] = topo.Interior(fmt.Sprintf("g%d_%d", i, j), 1, leaves...)
		}
		groups[i] = topo.Interior(fmt.Sprintf("g%d", i), 1, subs...)
	}
	return topo.Interior("root", 1, groups...)
}

// deepLoad keeps a standing backlog of deepBacklog packets on the engine_deep
// tree. Each step transmits one packet and enqueues the next to the leaves
// in a seeded shuffled order, round-robin, as perfbench's producer does.
type deepLoad struct {
	tr     *Tree
	leaves []Leaf // in the shuffled order
	pkts   []packet.Packet
	seq    int
}

func newDeepLoad(tb testing.TB, seed uint64) *deepLoad {
	tr, err := New(deepTreeTopology(), 1e12, "WF2Q+")
	if err != nil {
		tb.Fatal(err)
	}
	order := make([]int, deepLeaves)
	for i := range order {
		order[i] = i
	}
	rng := eqLCG(seed)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	l := &deepLoad{tr: tr, leaves: make([]Leaf, deepLeaves), pkts: make([]packet.Packet, 2*deepBacklog)}
	for i, s := range order {
		l.leaves[i] = tr.Leaf(s)
	}
	for l.seq < deepBacklog {
		l.enqueue()
	}
	return l
}

// enqueue offers the next packet. The packet ring holds twice the backlog,
// so a slot is reused only long after its packet left the tree.
func (l *deepLoad) enqueue() {
	leaf := l.leaves[l.seq%deepLeaves]
	p := &l.pkts[l.seq%len(l.pkts)]
	*p = packet.Packet{Session: leaf.n.session, Length: 512, Seq: int64(l.seq)}
	l.tr.EnqueueLeaf(0, leaf, p)
	l.seq++
}

// step is one operation: Dequeue (which completes the previous
// transmission) plus one EnqueueLeaf.
func (l *deepLoad) step() {
	if l.tr.Dequeue(0) == nil {
		panic("deep tree ran dry")
	}
	l.enqueue()
}

// BenchmarkTreeDeep measures the scheduler alone on perfbench's engine_deep
// tree (4096 WF²Q+ leaves, 16×16×16) under a standing 1024-packet backlog:
// one op is a Dequeue plus an EnqueueLeaf, no engine, lock or socket.
func BenchmarkTreeDeep(b *testing.B) {
	l := newDeepLoad(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}

// TestTreeSteadyStateZeroAlloc pins the deep tree's steady state at zero
// allocations per Dequeue+EnqueueLeaf once every leaf has been visited.
func TestTreeSteadyStateZeroAlloc(t *testing.T) {
	l := newDeepLoad(t, 1)
	for i := 0; i < 2*deepLeaves; i++ {
		l.step()
	}
	if a := testing.AllocsPerRun(10000, l.step); a != 0 {
		t.Fatalf("%v allocations per Dequeue+EnqueueLeaf, want 0", a)
	}
}
