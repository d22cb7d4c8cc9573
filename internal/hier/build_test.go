package hier

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hpfq/internal/errs"
	"hpfq/internal/pifo"
	"hpfq/internal/topo"
)

// nameTopology gives the nodes of a randomTopology tree names drawn from a
// small set, so some nodes stay unnamed and some names repeat.
func nameTopology(rng *rand.Rand, top *topo.Node) {
	names := []string{"", "", "a", "b", "c", "d", "e"}
	top.Walk(func(n *topo.Node, _ int) { n.Name = names[rng.Intn(len(names))] })
}

// wantByName is the name index a validate-then-build pass made: every
// named node indexed after its subtree (postorder), so with repeated names
// the last in postorder wins.
func wantByName(t *topo.Node, out map[string]*topo.Node) {
	for _, c := range t.Children {
		wantByName(c, out)
	}
	if t.Name != "" {
		out[t.Name] = t
	}
}

// TestBuildExact: over random topologies, the one-pass build reproduces
// the values of validating first and building from topo.Rates — every
// node's rate bit for bit, ids in preorder, unnamed interior nodes named
// node#i in preorder, the name index and the leaf index.
func TestBuildExact(t *testing.T) {
	const link = 1e9
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := randomTopology(rng, 1+rng.Intn(60))
		nameTopology(rng, top)
		tree, err := New(top, link, "WF2Q+")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rates := top.Rates(link)
		var pre []*topo.Node
		top.Walk(func(n *topo.Node, _ int) { pre = append(pre, n) })
		if len(tree.nodes) != len(pre) {
			t.Fatalf("seed %d: %d nodes, want %d", seed, len(tree.nodes), len(pre))
		}
		byTopo := make(map[*topo.Node]*node, len(pre))
		interior := 0
		for id, tn := range pre {
			n := tree.nodes[id]
			byTopo[tn] = n
			if n.id != id {
				t.Fatalf("seed %d: node %d has id %d", seed, id, n.id)
			}
			if math.Float64bits(n.rate) != math.Float64bits(rates[tn]) {
				t.Fatalf("seed %d: node %d rate %v, topo.Rates %v", seed, id, n.rate, rates[tn])
			}
			if n.share != tn.Share || n.session != tn.Session {
				t.Fatalf("seed %d: node %d share %g session %d, want %g %d", seed, id, n.share, n.session, tn.Share, tn.Session)
			}
			if tn.IsLeaf() {
				if tree.Leaf(tn.Session).n != n {
					t.Fatalf("seed %d: leaf index of session %d", seed, tn.Session)
				}
				continue
			}
			name := tn.Name
			if name == "" {
				name = fmt.Sprintf("node#%d", interior)
			}
			if n.name != name || tree.interior[interior] != n {
				t.Fatalf("seed %d: interior node %d is %q (#%d), want %q", seed, id, n.name, interior, name)
			}
			interior++
			if len(n.children) != len(tn.Children) || cap(n.children) != len(tn.Children) {
				t.Fatalf("seed %d: node %d has %d children (cap %d), want %d", seed, id, len(n.children), cap(n.children), len(tn.Children))
			}
		}
		for _, tn := range pre {
			n := byTopo[tn]
			for i, ct := range tn.Children {
				if c := n.children[i]; c != byTopo[ct] || c.parent != n || c.childIdx != i {
					t.Fatalf("seed %d: child %d of node %d misplaced", seed, i, n.id)
				}
			}
		}
		if len(tree.interior) != interior || len(tree.leaves) != len(pre)-interior {
			t.Fatalf("seed %d: %d interior %d leaves, want %d %d", seed, len(tree.interior), len(tree.leaves), interior, len(pre)-interior)
		}
		want := map[string]*topo.Node{}
		wantByName(top, want)
		if len(tree.names()) != len(want) {
			t.Fatalf("seed %d: %d names, want %d", seed, len(tree.names()), len(want))
		}
		for name, tn := range want {
			if tree.names()[name] != byTopo[tn] {
				t.Fatalf("seed %d: name %q indexes the wrong node", seed, name)
			}
		}
		snap := tree.Snapshot()
		for _, l := range top.Leaves() {
			if got := snap.Sessions[l.Session].Rate; got != rates[l] {
				t.Fatalf("seed %d: session %d registered at %g, want %g", seed, l.Session, got, rates[l])
			}
		}
	}
}

// TestBuildErrorsMatchValidate: a malformed topology fails the build with
// topo.Validate's text, the first fault in preorder, also when the walk
// meets a different failure first — an unknown policy or a rate out of
// range earlier in preorder, a duplicate session before a bad share.
func TestBuildErrorsMatchValidate(t *testing.T) {
	leaf := topo.Leaf
	in := topo.Interior
	for _, tc := range []struct {
		name string
		top  *topo.Node
		link float64
	}{
		{"nil root", nil, 1},
		{"bad root share", in("r", 0, leaf("a", 1, 0)), 1},
		{"bad leaf share", in("r", 1, leaf("a", 1, 0), leaf("b", math.NaN(), 1)), 1},
		{"bad interior share", in("r", 1, leaf("a", 1, 0), in("x", math.Inf(1), leaf("b", 1, 1))), 1},
		{"bad ceil", in("r", 1, leaf("a", 1, 0).WithCeil(-1), leaf("b", 1, 1)), 1},
		{"infinite ceil", in("r", 1, in("x", 1, leaf("a", 1, 0)).WithCeil(math.Inf(1))), 1},
		{"negative session", in("r", 1, leaf("a", 1, -2)), 1},
		{"duplicate session", in("r", 1, in("x", 1, leaf("a", 1, 0)), in("y", 1, leaf("b", 1, 0))), 1},
		{"session on interior", in("r", 1, &topo.Node{Name: "x", Share: 1, Session: 3, Children: []*topo.Node{leaf("a", 1, 0)}}), 1},
		{"fec on interior", in("r", 1, in("x", 1, leaf("a", 1, 0)).WithFEC("rs-8-2")), 1},
		{"nil child", in("r", 1, leaf("a", 1, 0), nil), 1},
		{"nil grandchild", in("r", 1, in("x", 1, nil), leaf("a", 1, math.MaxInt)), 1},
		{"duplicate before bad share", in("r", 1, leaf("a", 1, 0), in("x", 1, leaf("b", 1, 0), leaf("c", -1, 1))), 1},
		{"unknown policy before bad share", in("r", 1, in("x", 1, leaf("a", 1, 0)).WithPolicy("nope"), in("y", 1, leaf("b", 0, 1))), 1},
		{"unknown policy before bad ceil", in("r", 1, in("x", 1, leaf("a", 1, 0)).WithPolicy("nope"), in("y", 1, leaf("b", 1, 1).WithCeil(-1))), 1},
		{"rate underflow before bad ceil", in("r", 1, leaf("a", 1e-320, 0), leaf("b", 1e300, 1), leaf("c", 1, 2).WithCeil(math.NaN())), 1},
		{"bad leaf root", leaf("a", -1, 0), 1},
		{"bad topology, zero link", in("r", 1, leaf("a", 1, 0), leaf("b", 1, 0)), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verr := tc.top.Validate()
			if verr == nil {
				t.Fatal("case is valid")
			}
			_, err := New(tc.top, tc.link, "WF2Q+")
			want := fmt.Sprintf("hier: %v: %v", errs.ErrBadTopology, verr)
			if err == nil || err.Error() != want || !errors.Is(err, errs.ErrBadTopology) {
				t.Fatalf("build error %v, want %q", err, want)
			}
		})
	}
}

// TestBuildErrorsValidTopology: a well-formed topology that cannot be built
// reports why: a leaf root, a bad link rate, a caller-built policy with no
// node form, a guaranteed rate out of range.
func TestBuildErrorsValidTopology(t *testing.T) {
	leaf := topo.Leaf
	in := topo.Interior
	noNode := map[string]pifo.Factory{"r": {Name: "flat-only"}}
	for _, tc := range []struct {
		name    string
		top     *topo.Node
		link    float64
		perNode map[string]pifo.Factory
		want    error
	}{
		{"leaf root", leaf("a", 1, 0), 1, nil, errs.ErrBadTopology},
		{"unknown policy", in("r", 1, in("x", 1, leaf("a", 1, 0)).WithPolicy("nope")), 1, nil, errs.ErrUnknownAlgorithm},
		{"no node form", in("r", 1, leaf("a", 1, 0)), 1, noNode, errs.ErrNoNodeForm},
		{"rate underflow", in("r", 1, leaf("a", 1e-320, 0), leaf("b", 1e300, 1)), 1, nil, errs.ErrBadTopology},
		{"rate overflow", in("r", 1, leaf("a", 1, 0)), math.Inf(1), nil, errs.ErrBadTopology},
		{"session above MaxSession", in("r", 1, leaf("a", 1, 0), leaf("b", 1, MaxSession+1)), 1, nil, errs.ErrBadTopology},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.top.Validate(); err != nil {
				t.Fatalf("case is invalid: %v", err)
			}
			if _, err := BuildSpec(tc.top, tc.link, "WF2Q+", Resolver("WF2Q+", nil, tc.perNode)); !errors.Is(err, tc.want) {
				t.Fatalf("build error %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := New(in("r", 1, leaf("a", 1, 0)), 0, "WF2Q+"); err == nil || err.Error() != "hier: invalid link rate 0" {
		t.Fatalf("zero link rate: %v", err)
	}
}

// TestSessionBound: a tree's per-session tables grow with the largest
// session id, so AddLeaf, like BuildSpec (TestBuildErrorsValidTopology),
// refuses an id outside [0, MaxSession] with ErrBadTopology — on a built
// tree and on NewFlat's — and both accept MaxSession.
func TestSessionBound(t *testing.T) {
	leaf, in := topo.Leaf, topo.Interior
	tr, err := New(in("r", 1, leaf("a", 1, 0), leaf("b", 1, MaxSession)), 1e6, "WF2Q+")
	if err != nil {
		t.Fatalf("build with session MaxSession: %v", err)
	}
	for _, tc := range []struct {
		name string
		tr   *Tree
	}{{"built", tr}, {"flat", flatTree(t, "WF2Q+", 1e6, 1e5)}} {
		parent := tc.tr.Nodes()[0].Name
		if err := tc.tr.AddLeaf(parent, "", MaxSession+1, 1); !errors.Is(err, errs.ErrBadTopology) {
			t.Errorf("%s: AddLeaf(MaxSession+1): %v, want ErrBadTopology", tc.name, err)
		}
		if err := tc.tr.AddLeaf(parent, "", -1, 1); !errors.Is(err, errs.ErrBadTopology) {
			t.Errorf("%s: AddLeaf(-1): %v, want ErrBadTopology", tc.name, err)
		}
	}
	if err := flatTree(t, "WF2Q+", 1e6).AddLeaf("", "", MaxSession, 1e5); err != nil {
		t.Errorf("flat: AddLeaf(MaxSession): %v", err)
	}
}
