package hier

import (
	"testing"

	"hpfq/internal/packet"
	"hpfq/internal/pifo"
)

// FuzzTree drives an H-WF²Q+ hierarchy with an arbitrary operation stream
// and checks conservation, per-session FIFO order and backlog accounting
// — including the Reset-Path/Restart-Node machinery under adversarial
// interleavings of arrivals and transmissions, and under live mutation. The
// tree is driven directly (Dequeue doubles as transmission-complete for the
// previous packet). An even byte enqueues; an odd byte b picks by (b>>1)%8:
// 0–4 dequeue, 5 retunes a session's rate, 6 moves a node's policy one step
// round WF²Q+ → DRR → FIFO → WF²Q+, 7 removes an idle leaf and grafts it
// back under its parent.
func FuzzTree(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 1, 1, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 254, 255})
	f.Add([]byte{8, 16, 24, 32, 40, 1, 3, 5, 7, 9})
	f.Add([]byte{0, 2, 4, 6, 11, 13, 29, 45, 1, 15, 31, 1, 1, 0, 2, 1, 1, 1})
	var cycle [3]pifo.Factory
	for i, name := range []string{"WF2Q+", "DRR", "FIFO"} {
		cycle[i], _ = pifo.Lookup(name)
	}
	nodes := []string{"root", "L", "LL"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		tree, err := New(deepTopology(), 16, "WF2Q+")
		if err != nil {
			t.Fatal(err)
		}
		const nsess = 4
		var seqs, lastOut [nsess]int64
		for i := range lastOut {
			lastOut[i] = -1
		}
		enq, deq := 0, 0
		for _, b := range ops {
			if b%2 == 0 {
				sess := int(b>>1) % nsess
				p := packet.New(sess, float64(1+b>>3))
				p.Seq = seqs[sess]
				seqs[sess]++
				tree.Enqueue(0, p)
				enq++
				continue
			}
			arg := int(b >> 4)
			switch (b >> 1) % 8 {
			case 5:
				// Errors (a rate at or above the parent's) are refusals,
				// not faults; only the invariants below matter.
				sess := arg % nsess
				parent := tree.Leaf(sess).n.parent
				_ = tree.SetSessionRate(sess, parent.rate*float64(1+arg%7)/8)
			case 6:
				n := tree.names()[nodes[arg%len(nodes)]]
				next := cycle[0]
				for i, f := range cycle {
					if n.ns.Name() == f.Name {
						next = cycle[(i+1)%len(cycle)]
					}
				}
				if err := tree.SetNodePolicy(n.name, next); err != nil {
					t.Fatal(err)
				}
			case 7:
				sess := arg % nsess
				leaf := tree.Leaf(sess).n
				if tree.RemoveLeaf(sess) == nil {
					if err := tree.AddLeaf(leaf.parent.name, leaf.name, sess, leaf.share); err != nil {
						t.Fatal(err)
					}
				}
			default:
				p := tree.Dequeue(0)
				if p == nil {
					continue
				}
				deq++
				if p.Seq <= lastOut[p.Session] {
					t.Fatalf("session %d FIFO violated: seq %d after %d",
						p.Session, p.Seq, lastOut[p.Session])
				}
				lastOut[p.Session] = p.Seq
			}
		}
		for {
			p := tree.Dequeue(0)
			if p == nil {
				break
			}
			deq++
		}
		if deq != enq {
			t.Fatalf("conservation violated: %d in, %d out", enq, deq)
		}
		if tree.Backlog() != 0 {
			t.Fatalf("backlog %d after drain", tree.Backlog())
		}
	})
}
