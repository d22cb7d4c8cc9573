package hier

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"hpfq/internal/packet"
	"hpfq/internal/topo"
)

func mustTree(t *testing.T, spec string, rate float64, algo string) *Tree {
	t.Helper()
	top, err := topo.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(top, rate, algo)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6*math.Max(1, math.Abs(b)) }

// TestTreeSetNodeShare: retuning an interior share re-solves every descendant
// leaf rate.
func TestTreeSetNodeShare(t *testing.T) {
	tr := mustTree(t, "root=1(agg=3(a=2:0,b=1:1),c=1:2)", 8e6, "WF2Q+")
	if r := tr.SessionRate(0); !near(r, 4e6) {
		t.Fatalf("leaf a rate %g, want 4e6", r)
	}
	if err := tr.SetNodeShare("agg", 1); err != nil {
		t.Fatal(err)
	}
	// root now splits 1:1 → agg 4e6 (a ~2.67e6, b ~1.33e6), c 4e6.
	if r := tr.SessionRate(2); !near(r, 4e6) {
		t.Fatalf("leaf c rate %g after rebalance, want 4e6", r)
	}
	if r := tr.NodeRate("agg"); !near(r, 4e6) {
		t.Fatalf("agg rate %g, want 4e6", r)
	}
	if err := tr.SetNodeShare("root", 2); err == nil {
		t.Fatal("root share retune accepted")
	}
	if err := tr.SetNodeShare("nope", 1); err == nil {
		t.Fatal("unknown node retuned")
	}
	if err := tr.SetNodeShare("agg", -3); err == nil {
		t.Fatal("negative share accepted")
	}
}

// TestTreeSetSessionRate: an absolute leaf retune solves the share that
// yields that rate and refuses impossible targets.
func TestTreeSetSessionRate(t *testing.T) {
	tr := mustTree(t, "root=1(a=1:0,b=1:1,c=2:2)", 8e6, "WF2Q+")
	if err := tr.SetSessionRate(0, 4e6); err != nil {
		t.Fatal(err)
	}
	if r := tr.SessionRate(0); !near(r, 4e6) {
		t.Fatalf("leaf a rate %g after absolute retune, want 4e6", r)
	}
	// Siblings keep their ratio in the remainder: b:c = 1:2 over 4e6.
	if r := tr.SessionRate(2); !near(r, 8e6/3) {
		t.Fatalf("leaf c rate %g, want %g", r, 8e6/3)
	}
	if err := tr.SetSessionRate(0, 8e6); err == nil {
		t.Fatal("leaf rate >= parent rate accepted")
	}
	if err := tr.SetSessionRate(7, 1e6); err == nil {
		t.Fatal("unknown session retuned")
	}
}

// TestTreeRetuneUnsupportedAlgo: a tree of GPS-clock nodes refuses all
// mutations and leaves rates untouched (all-or-nothing).
func TestTreeRetuneUnsupportedAlgo(t *testing.T) {
	tr := mustTree(t, "root=1(a=1:0,b=1:1)", 2e6, "WFQ")
	before := tr.SessionRate(0)
	if err := tr.SetNodeShare("a", 3); err == nil {
		t.Fatal("WFQ tree share retune accepted")
	}
	if err := tr.SetSessionRate(0, 1.5e6); err == nil {
		t.Fatal("WFQ tree leaf retune accepted")
	}
	if err := tr.AddLeaf("root", "c", 2, 1); err == nil {
		t.Fatal("WFQ tree graft accepted")
	}
	if err := tr.CanRemoveLeaf(0); err == nil {
		t.Fatal("WFQ tree removal pre-check passed")
	}
	if r := tr.SessionRate(0); r != before {
		t.Fatalf("failed mutations changed rate %g → %g", before, r)
	}
}

// TestTreeAddRemoveLeaf: graft a leaf (diluting its siblings), serve it,
// then remove it once idle; its bandwidth returns to the siblings and its
// session id frees up.
func TestTreeAddRemoveLeaf(t *testing.T) {
	tr := mustTree(t, "root=1(a=1:0,b=1:1)", 6e6, "WF2Q+")
	if err := tr.AddLeaf("root", "c", 2, 2); err != nil {
		t.Fatal(err)
	}
	if r := tr.SessionRate(2); !near(r, 3e6) {
		t.Fatalf("grafted leaf rate %g, want 3e6", r)
	}
	if r := tr.SessionRate(0); !near(r, 1.5e6) {
		t.Fatalf("diluted sibling rate %g, want 1.5e6", r)
	}
	if err := tr.AddLeaf("root", "dup", 2, 1); err == nil {
		t.Fatal("duplicate session grafted")
	}
	if err := tr.AddLeaf("a", "kid", 3, 1); err == nil {
		t.Fatal("graft under a leaf accepted")
	}
	if err := tr.AddLeaf("nope", "kid", 3, 1); err == nil {
		t.Fatal("graft under unknown parent accepted")
	}

	// Busy leaves refuse removal until fully served.
	tr.Enqueue(0, packet.New(2, 8000))
	if err := tr.RemoveLeaf(2); !errors.Is(err, ErrLeafBusy) {
		t.Fatalf("RemoveLeaf on backlogged leaf: %v, want ErrLeafBusy", err)
	}
	if tr.Dequeue(1) == nil {
		t.Fatal("no packet served")
	}
	tr.Dequeue(2) // second pass unpins the served head
	if err := tr.RemoveLeaf(2); err != nil {
		t.Fatal(err)
	}
	if r := tr.SessionRate(0); !near(r, 3e6) {
		t.Fatalf("sibling rate %g after removal, want 3e6 restored", r)
	}
	if got := tr.Sessions(); len(got) != 2 {
		t.Fatalf("sessions %v after removal", got)
	}
	// The freed session id can be grafted again.
	if err := tr.AddLeaf("root", "c2", 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestLeafSlotChurn: 10 000 cycles each graft two named leaves, serve a
// packet through each, and remove them in alternating order. Slots are
// reused last-freed first, and the session table, the leaf slots, the free
// list and the node table stay at the size the first cycles left them.
func TestLeafSlotChurn(t *testing.T) {
	const ids = 10 // sessions 2..11 rotate through the cycles
	tr := mustTree(t, "root=1(a=1:0,g=1(b=1:1))", 1e9, "WF2Q+")
	type sizes struct{ sessions, leaves, free, nodes int }
	size := func() sizes { return sizes{cap(tr.sessions), cap(tr.leaves), cap(tr.free), cap(tr.nodes)} }
	var high sizes
	var freed []int32 // the free list the last cycle left, last-freed last
	for c := 0; c < 10000; c++ {
		pair := [2]int{2 + 2*c%ids, 3 + 2*c%ids}
		parents := [2]string{"root", "g"}
		for i, id := range pair {
			name := fmt.Sprintf("x%d", id)
			if err := tr.AddLeaf(parents[i], name, id, 1); err != nil {
				t.Fatalf("cycle %d: add %d: %v", c, id, err)
			}
			slot := tr.Slot(id)
			if want := int32(2 + i); c == 0 && slot != want {
				t.Fatalf("cycle 0: session %d in slot %d, want the new slot %d", id, slot, want)
			} else if c > 0 && slot != freed[len(freed)-1-i] {
				t.Fatalf("cycle %d: session %d in slot %d, want the last one freed of %v", c, id, slot, freed)
			}
			if l := tr.Leaf(id); l.Slot() != slot || l.Session() != id || tr.QueueLen(id) != 0 || tr.names()[name] != l.n {
				t.Fatalf("cycle %d: session %d indexed wrong", c, id)
			}
			tr.Enqueue(0, packet.New(id, 8000))
		}
		for tr.Dequeue(0) != nil {
		}
		freed = freed[:0]
		for i := range pair {
			id := pair[(c+i)%2]
			if err := tr.RemoveLeaf(id); err != nil {
				t.Fatalf("cycle %d: remove %d: %v", c, id, err)
			}
			freed = append(freed, tr.free[len(tr.free)-1])
			if tr.Slot(id) != -1 || tr.Leaf(id).n != nil {
				t.Fatalf("cycle %d: removed session %d still indexed", c, id)
			}
		}
		switch got := size(); {
		case c < ids/2:
			high = got
		case got != high:
			t.Fatalf("cycle %d: tables at capacity %+v, %+v after the first cycles", c, got, high)
		}
	}
	if got := tr.Sessions(); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("sessions %v after the churn, want [0 1]", got)
	}
}

// TestTreeCanRemoveLeaf: the static pre-check mirrors RemoveLeaf's refusals
// without mutating or requiring quiescence.
func TestTreeCanRemoveLeaf(t *testing.T) {
	tr := mustTree(t, "root=1(a=1:0,b=1(c=1:1))", 4e6, "WF2Q+")
	if err := tr.CanRemoveLeaf(1); err == nil {
		t.Fatal("pre-check passed for a node's only child")
	}
	if err := tr.CanRemoveLeaf(9); err == nil {
		t.Fatal("pre-check passed for unknown session")
	}
	// A backlogged but otherwise removable leaf passes the static check
	// (quiescence is the caller's drain story, not the pre-check's).
	tr.Enqueue(0, packet.New(0, 8000))
	if err := tr.CanRemoveLeaf(0); err != nil {
		t.Fatalf("pre-check on backlogged removable leaf: %v", err)
	}
}

// TestTreeNodesInfo: the introspection listing walks preorder with parent
// links, shares, and sessions, skipping removed leaves.
func TestTreeNodesInfo(t *testing.T) {
	tr := mustTree(t, "root=1(agg=3(a=2:0,b=1:1),c=1:2)", 8e6, "WF2Q+")
	infos := tr.Nodes()
	if len(infos) != 5 {
		t.Fatalf("got %d nodes, want 5: %+v", len(infos), infos)
	}
	if infos[0].Name != "root" || infos[0].Parent != "" || infos[0].Session != -1 {
		t.Fatalf("root info %+v", infos[0])
	}
	byName := map[string]NodeInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName["a"]; in.Parent != "agg" || in.Session != 0 || !near(in.Rate, 4e6) || in.Share != 2 {
		t.Fatalf("leaf a info %+v", in)
	}
	tr.Dequeue(1)
	if err := tr.RemoveLeaf(2); err != nil {
		t.Fatal(err)
	}
	if infos = tr.Nodes(); len(infos) != 4 {
		t.Fatalf("got %d nodes after removal, want 4: %+v", len(infos), infos)
	}
}
