package topo

import (
	"fmt"
	"strings"
	"testing"
)

// deepSpec is the fanout³-leaf three-level tree in Parse syntax; fanout 16
// is the 4096-leaf topology of perfbench's engine_deep.
func deepSpec(fanout int) string {
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
				fmt.Fprintf(&b, "l%d_%d_%d=1:%d", i, j, k, (i*fanout+j)*fanout+k)
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
func BenchmarkTopoParseDeep(b *testing.B) {
	spec := deepSpec(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(spec); err != nil {
			b.Fatal(err)
		}
	}
}
