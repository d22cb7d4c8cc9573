package topo_test

import (
	"errors"
	"math"
	"testing"

	"hpfq/internal/errs"
	"hpfq/internal/hier"
	"hpfq/internal/sched"
	"hpfq/internal/topo"
)

// fuzzLink is the link rate accepted specs are built for.
const fuzzLink = 1e9

// FuzzTopoParse: Parse never panics, and every spec it accepts is a valid
// tree with finite positive shares and finite non-negative ceilings, which
// hier.New builds without panicking. The build succeeds exactly when every
// interior node's policy has a node form, every node's topo.Rates rate is
// finite and positive and no session exceeds hier.MaxSession, and then
// carries those rates bit for bit.
func FuzzTopoParse(f *testing.F) {
	for _, seed := range []string{
		"root=1(agg=3(a=2:0,b=1:1),c=1:2)",
		"root=1:WF2Q+(video=3:SP(hd=2:0,sd=1:1),bulk=1:2)",
		"root=1(a=2^5e6!rs-8-2:0,b=1:1:EDF)",
		"root=NaN(a=1:0)", "root=1(a=+Inf:0)", "root=1(a=1^NaN:0)", "a=1:0",
		"root=1(a=1:0,b=1:131072)", // one past hier.MaxSession
		// Duplicate sessions: small ids, out of order, hier.MaxSession
		// itself, and an id above it used twice.
		"root=1(a=1:0,b=1:0)",
		"root=1(g=1(a=1:3,b=1:1),c=1:3)",
		"root=1(a=1:131071,b=1:131071)",
		"root=1(a=1:131072,b=1:131072)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		n, err := topo.Parse(spec)
		if err != nil {
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid tree: %v", spec, err)
		}
		rates := n.Rates(fuzzLink)
		buildable, maxSession := !n.IsLeaf(), 0
		n.Walk(func(m *topo.Node, _ int) {
			if !(m.Share > 0) || math.IsInf(m.Share, 0) || !(m.Ceil >= 0) || math.IsInf(m.Ceil, 0) {
				t.Fatalf("Parse(%q): node %q share %g ceil %g", spec, m.Name, m.Share, m.Ceil)
			}
			if r := rates[m]; !(r > 0) || math.IsInf(r, 0) {
				buildable = false
			}
			if m.IsLeaf() {
				maxSession = max(maxSession, m.Session)
			} else if m.Policy != "" {
				if _, err := sched.NewNode(m.Policy, 1); err != nil {
					buildable = false
				}
			}
		})
		tree, err := hier.New(n, fuzzLink, "WF2Q+")
		if maxSession > hier.MaxSession {
			if err == nil || buildable && !errors.Is(err, errs.ErrBadTopology) {
				t.Fatalf("hier.New(Parse(%q)): session %d above MaxSession: err %v", spec, maxSession, err)
			}
			return
		}
		if (err == nil) != buildable {
			t.Fatalf("hier.New(Parse(%q)): err %v, buildable %v", spec, err, buildable)
		}
		if err != nil {
			return
		}
		var pre []*topo.Node
		n.Walk(func(m *topo.Node, _ int) { pre = append(pre, m) })
		nodes := tree.Nodes()
		if len(nodes) != len(pre) {
			t.Fatalf("hier.New(Parse(%q)): %d nodes, want %d", spec, len(nodes), len(pre))
		}
		for i, m := range pre {
			if math.Float64bits(nodes[i].Rate) != math.Float64bits(rates[m]) || nodes[i].Session != m.Session {
				t.Fatalf("hier.New(Parse(%q)): node %d rate %v session %d, want %v %d",
					spec, i, nodes[i].Rate, nodes[i].Session, rates[m], m.Session)
			}
		}
	})
}
