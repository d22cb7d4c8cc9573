package topo

import (
	"fmt"
	"strings"
	"testing"
)

// deepSpec is the fanout³-leaf three-level tree in Parse syntax; fanout 16
// is the 4096-leaf topology of perfbench's engine_deep. Leaf i in preorder
// carries session i·stride mod fanout³: stride 1 numbers the leaves in
// order, and an odd stride with fanout 16 shuffles the sessions.
func deepSpec(fanout, stride int) string {
	leaves := fanout * fanout * fanout
	var b strings.Builder
	b.WriteString("root=1(")
	for i := 0; i < fanout; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "g%d=1(", i)
		for j := 0; j < fanout; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "g%d_%d=1(", i, j)
			for k := 0; k < fanout; k++ {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "l%d_%d_%d=1:%d", i, j, k, ((i*fanout+j)*fanout+k)*stride%leaves)
			}
			b.WriteByte(')')
		}
		b.WriteByte(')')
	}
	b.WriteByte(')')
	return b.String()
}

// BenchmarkTopoParseDeep measures parsing (and validating) engine_deep's
// 4096-leaf spec: the first step of every engine build from a spec.
func BenchmarkTopoParseDeep(b *testing.B) { benchmarkParse(b, deepSpec(16, 1)) }

// BenchmarkTopoParseDeepShuffled is BenchmarkTopoParseDeep with the
// sessions out of preorder, the duplicate check's costlier sort.
func BenchmarkTopoParseDeepShuffled(b *testing.B) { benchmarkParse(b, deepSpec(16, 2731)) }

func benchmarkParse(b *testing.B, spec string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// maxParseDeepAllocs bounds the allocations of parsing the 4096-leaf spec:
// the node and children slabs, the parse stack, and Validate's leaf list
// and its duplicate check's positions, whatever the tree's size.
const maxParseDeepAllocs = 5

// TestTopoParseDeepAllocs gates the allocations of BenchmarkTopoParseDeep's
// parse, so a per-node allocation or a map crept back into Parse fails here.
func TestTopoParseDeepAllocs(t *testing.T) {
	spec := deepSpec(16, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per 4096-leaf parse", allocs)
	if allocs > maxParseDeepAllocs {
		t.Fatalf("4096-leaf parse: %.0f allocs, want <= %d", allocs, maxParseDeepAllocs)
	}
}
