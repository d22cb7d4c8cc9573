package topo

import (
	"math"
	"testing"
)

// FuzzTopoParse: Parse never panics, and every spec it accepts is a valid
// tree with finite positive shares and finite non-negative ceilings.
func FuzzTopoParse(f *testing.F) {
	for _, seed := range []string{
		"root=1(agg=3(a=2:0,b=1:1),c=1:2)",
		"root=1:WF2Q+(video=3:SP(hd=2:0,sd=1:1),bulk=1:2)",
		"root=1(a=2^5e6!rs-8-2:0,b=1:1:EDF)",
		"root=NaN(a=1:0)", "root=1(a=+Inf:0)", "root=1(a=1^NaN:0)", "a=1:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		n, err := Parse(spec)
		if err != nil {
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid tree: %v", spec, err)
		}
		n.Walk(func(m *Node, _ int) {
			if !(m.Share > 0) || math.IsInf(m.Share, 0) || !(m.Ceil >= 0) || math.IsInf(m.Ceil, 0) {
				t.Fatalf("Parse(%q): node %q share %g ceil %g", spec, m.Name, m.Share, m.Ceil)
			}
		})
	})
}
