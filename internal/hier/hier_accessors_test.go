package hier

import (
	"math"
	"slices"
	"testing"

	"hpfq/internal/packet"
	"hpfq/internal/topo"
)

func TestTreeAccessors(t *testing.T) {
	top := deepTopology()
	tree, err := New(top, 1e6, "WF2Q+")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name() != "H-WF2Q+" {
		t.Errorf("Name = %q", tree.Name())
	}
	if tree.Rate() != 1e6 {
		t.Errorf("Rate = %g", tree.Rate())
	}
	// Session rates follow the topology: a = 0.6·0.5·0.7 = 0.21.
	if got := tree.SessionRate(0); math.Abs(got-0.21e6) > 1 {
		t.Errorf("SessionRate(0) = %g, want 210000", got)
	}
	if tree.SessionRate(99) != 0 {
		t.Error("unknown session should have rate 0")
	}
	if got := tree.NodeRate("LL"); math.Abs(got-0.30e6) > 1 {
		t.Errorf("NodeRate(LL) = %g, want 300000", got)
	}
	if tree.NodeRate("nope") != 0 {
		t.Error("unknown node should have rate 0")
	}
	// Ascending ids, from the session table.
	if sess := tree.Sessions(); !slices.Equal(sess, []int{0, 1, 2, 3}) {
		t.Errorf("Sessions = %v", sess)
	}
	// Queue accounting.
	tree.Enqueue(0, packet.New(2, 100))
	tree.Enqueue(0, packet.New(2, 50))
	if tree.QueueLen(2) != 2 || tree.QueueBits(2) != 150 {
		t.Errorf("QueueLen/Bits = %d/%g", tree.QueueLen(2), tree.QueueBits(2))
	}
	if tree.QueueLen(42) != 0 || tree.QueueBits(42) != 0 {
		t.Error("unknown session queue should be empty")
	}
	if tree.Backlog() != 2 {
		t.Errorf("Backlog = %d", tree.Backlog())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := New(topo.Leaf("x", 1, 0), 1, "WF2Q+"); err == nil {
		t.Error("leaf root should error")
	}
	if _, err := New(deepTopology(), 0, "WF2Q+"); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := New(deepTopology(), 1, "nope"); err == nil {
		t.Error("unknown algorithm should error")
	}
	bad := topo.Interior("r", 1, topo.Leaf("a", -1, 0))
	if _, err := New(bad, 1, "WF2Q+"); err == nil {
		t.Error("invalid topology should error")
	}
}

func TestEnqueueUnknownSessionPanics(t *testing.T) {
	tree, err := New(deepTopology(), 1, "WF2Q+")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown session")
		}
	}()
	tree.Enqueue(0, packet.New(77, 1))
}

// TestMixedSizesHierarchy: heterogeneous packet sizes through a deep tree
// still respect shares (per-bit fairness, not per-packet).
func TestMixedSizesHierarchy(t *testing.T) {
	tree, err := New(deepTopology(), 1e6, "WF2Q+")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []float64{1500 * 8, 576 * 8, 64 * 8, 9000 * 8}
	served := map[int]float64{}
	// Drive the scheduler directly with per-session cyclic sizes.
	k := 0
	refill := func(s int) {
		tree.Enqueue(0, packet.New(s, sizes[(s+k)%len(sizes)]))
		k++
	}
	for s := 0; s < 4; s++ {
		refill(s)
		refill(s)
	}
	var total float64
	for total < 4e6 {
		p := tree.Dequeue(0)
		served[p.Session] += p.Length
		total += p.Length
		refill(p.Session)
	}
	want := map[int]float64{0: 0.21, 1: 0.09, 2: 0.30, 3: 0.40}
	for s, w := range want {
		if got := served[s] / total; math.Abs(got-w) > 0.02 {
			t.Errorf("session %d share %.3f, want %.2f", s, got, w)
		}
	}
}
