package pifo

import (
	"strings"
	"testing"
)

// TestSchedSetSessionRate: a live retune of a flat engine's class — a child
// of its one-level root Node — changes future stamps: after the retune, the
// faster session overtakes under WF²Q+.
func TestSchedSetSessionRate(t *testing.T) {
	f, _ := Lookup("WF2Q+")
	n := NewNode(f, 1e6)
	n.AddChild(0, 5e5)
	n.AddChild(1, 5e5)
	if err := n.SetChildRate(0, 9e5); err != nil {
		t.Fatal(err)
	}
	if err := n.SetChildRate(1, 1e5); err != nil {
		t.Fatal(err)
	}
	if err := n.SetChildRate(7, 1e5); err == nil {
		t.Fatal("unknown session retuned")
	}
	if err := n.SetChildRate(0, -1); err == nil {
		t.Fatal("negative rate accepted")
	}
	// 4 packets each: session 0 at 9x the rate must finish its backlog
	// having been served far more often early on.
	o := newOneLevel(n, nil, 8000, 2)
	for i := 0; i < 4; i++ {
		o.enqueue(0, 0)
		o.enqueue(1, 0)
	}
	order := o.drainAll(0)
	zeros := 0
	for _, id := range order[:4] {
		if id == 0 {
			zeros++
		}
	}
	if zeros < 3 {
		t.Fatalf("first half of service %v: session 0 (rate 9e5) served %d of 4, want >= 3", order, zeros)
	}
}

// TestSchedRemoveSession: removing a flat engine's class from its one-level
// root Node requires an idle child and frees the id for re-registration.
func TestSchedRemoveSession(t *testing.T) {
	f, _ := Lookup("WF2Q+")
	n := NewNode(f, 1e6)
	n.AddChild(0, 5e5)
	n.AddChild(1, 5e5)
	o := newOneLevel(n, nil, 8000, 2)
	o.enqueue(1, 0)
	if err := n.RemoveChild(1); err == nil {
		t.Fatal("removed a backlogged session")
	}
	o.drainAll(0)
	if err := n.RemoveChild(1); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveChild(1); err == nil {
		t.Fatal("removed a session twice")
	}
	o.enqueue(0, 0)
	if got := o.drainAll(0); !equalInts(got, []int{0}) {
		t.Fatalf("survivor order %v after removal", got)
	}
	n.AddChild(1, 2e5) // freed id returns without panicking
}

// TestGPSNotRetunable:the exact-GPS fluid clocks refuse live mutations with
// a descriptive error.
func TestGPSNotRetunable(t *testing.T) {
	for _, name := range []string{"WFQ", "WF2Q"} {
		f, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		n := NewNode(f, 1e6)
		n.AddChild(0, 5e5)
		if n.Retunable() || n.Removable() {
			t.Fatalf("%s reports live-mutation capability", name)
		}
		if err := n.SetChildRate(0, 1e5); err == nil || !strings.Contains(err.Error(), "retun") {
			t.Fatalf("%s SetChildRate: %v, want a retuning error", name, err)
		}
		if err := n.RemoveChild(0); err == nil {
			t.Fatalf("%s RemoveChild succeeded", name)
		}
	}
}

// TestNodeLiveMutations: the hierarchical host's child retune, removal, and
// policy swap, spot-checked through a node's Push/Pop interface.
func TestNodeLiveMutations(t *testing.T) {
	f, _ := Lookup("WF2Q+")
	n := NewNode(f, 1e6)
	n.AddChild(0, 5e5)
	n.AddChild(1, 5e5)
	if err := n.SetChildRate(0, 8e5); err != nil {
		t.Fatal(err)
	}
	if err := n.SetChildRate(9, 1e5); err == nil {
		t.Fatal("unknown child retuned")
	}
	n.Push(0, 8000, false)
	if err := n.RemoveChild(0); err == nil {
		t.Fatal("removed a backlogged child")
	}
	if id, ok := n.Pop(); !ok || id != 0 {
		t.Fatalf("Pop = %d,%v", id, ok)
	}
	if err := n.RemoveChild(0); err != nil {
		t.Fatal(err)
	}
	if err := n.SetNodeRate(2e6); err != nil {
		t.Fatal(err)
	}
	if err := n.SetNodeRate(-2); err == nil {
		t.Fatal("negative node rate accepted")
	}
	// Swap policy with child 1 backlogged; the entry survives.
	n.Push(1, 4000, false)
	sp, _ := Lookup("SP")
	if err := n.SetPolicy(sp); err != nil {
		t.Fatal(err)
	}
	if id, ok := n.Pop(); !ok || id != 1 {
		t.Fatalf("post-swap Pop = %d,%v, want child 1", id, ok)
	}
}
