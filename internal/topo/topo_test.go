package topo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func example() *Node {
	return Interior("root", 1,
		Interior("A", 0.8,
			Leaf("A1", 0.75, 1),
			Leaf("A2", 0.05, 2),
		),
		Leaf("B", 0.2, 3),
	)
}

func TestValidateOK(t *testing.T) {
	if err := example().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]*Node{
		"duplicate session": Interior("r", 1, Leaf("a", 1, 0), Leaf("b", 1, 0)),
		"negative session":  Interior("r", 1, Leaf("a", 1, -2)),
		"zero share":        Interior("r", 1, Leaf("a", 0, 0)),
		"nan share":         Interior("r", 1, Leaf("a", math.NaN(), 0)),
		"interior session":  Interior("r", 1, &Node{Name: "x", Share: 1, Session: 3, Children: []*Node{Leaf("a", 1, 0)}}),
	}
	for name, top := range cases {
		if err := top.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// mapValidate is Validate as a preorder walk with a map of the sessions
// seen: the reference the map-free duplicate check must match.
func mapValidate(n *Node, seen map[int]string) error {
	if err := n.Check(); err != nil {
		return err
	}
	if n.IsLeaf() {
		if prev, dup := seen[n.Session]; dup {
			return fmt.Errorf("topo: session %d used by both %q and %q", n.Session, prev, n.Name)
		}
		seen[n.Session] = n.Name
		return nil
	}
	for _, c := range n.Children {
		if err := mapValidate(c, seen); err != nil {
			return err
		}
	}
	return nil
}

// TestValidateMatchesMapWalk: over random trees with repeated sessions and
// the odd malformed node, Validate returns the map walk's error text —
// the first fault in preorder, a duplicate naming the session's first
// leaf.
func TestValidateMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	leaf := 0
	var grow func(depth int) *Node
	grow = func(depth int) *Node {
		if depth == 0 || rng.Intn(3) == 0 {
			leaf++
			l := Leaf(fmt.Sprintf("l%d", leaf), 1, rng.Intn(12))
			switch rng.Intn(40) {
			case 0:
				l.Share = 0
			case 1:
				l.Session = -1
			}
			return l
		}
		kids := make([]*Node, 1+rng.Intn(4))
		for i := range kids {
			kids[i] = grow(depth - 1)
		}
		return Interior(fmt.Sprintf("n%d", rng.Intn(100)), 1, kids...)
	}
	for i := 0; i < 2000; i++ {
		top := grow(1 + rng.Intn(4))
		got, want := fmt.Sprint(top.Validate()), fmt.Sprint(mapValidate(top, map[int]string{}))
		if got != want {
			t.Fatalf("tree %d: Validate %q, map walk %q", i, got, want)
		}
	}
}

func TestRatesNormalized(t *testing.T) {
	top := example()
	rates := top.SessionRates(45e6)
	// A's children's shares (0.75, 0.05) normalize to (0.9375, 0.0625) of
	// A's 36 Mbps.
	want := map[int]float64{
		1: 45e6 * 0.8 * 0.75 / 0.80,
		2: 45e6 * 0.8 * 0.05 / 0.80,
		3: 45e6 * 0.2,
	}
	for s, w := range want {
		if math.Abs(rates[s]-w) > 1e-6 {
			t.Errorf("session %d rate %g, want %g", s, rates[s], w)
		}
	}
	var sum float64
	for _, r := range rates {
		sum += r
	}
	if math.Abs(sum-45e6) > 1e-3 {
		t.Errorf("session rates sum to %g, want 45e6", sum)
	}
}

func TestLeavesAndWalk(t *testing.T) {
	top := example()
	leaves := top.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("%d leaves, want 3", len(leaves))
	}
	want := []string{"A1", "A2", "B"} // depth-first order
	for i, l := range leaves {
		if l.Name != want[i] {
			t.Errorf("leaf %d = %q, want %q", i, l.Name, want[i])
		}
	}
	depths := map[string]int{}
	top.Walk(func(n *Node, d int) { depths[n.Name] = d })
	if depths["root"] != 0 || depths["A"] != 1 || depths["A1"] != 2 || depths["B"] != 1 {
		t.Errorf("depths wrong: %v", depths)
	}
}

func TestDepth(t *testing.T) {
	if d := example().Depth(); d != 2 {
		t.Errorf("Depth = %d, want 2", d)
	}
	if d := Leaf("x", 1, 0).Depth(); d != 0 {
		t.Errorf("leaf Depth = %d, want 0", d)
	}
}

func TestFindAndPath(t *testing.T) {
	top := example()
	if top.Find("A2") == nil || top.Find("nope") != nil {
		t.Error("Find wrong")
	}
	if top.FindSession(3) == nil || top.FindSession(9) != nil {
		t.Error("FindSession wrong")
	}
	path := top.PathToSession(2)
	if len(path) != 3 || path[0].Name != "root" || path[1].Name != "A" || path[2].Name != "A2" {
		t.Errorf("PathToSession(2) = %v", names(path))
	}
	if top.PathToSession(42) != nil {
		t.Error("PathToSession of absent session should be nil")
	}
}

func names(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Name
	}
	return out
}
