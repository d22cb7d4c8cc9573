package core

import (
	"testing"

	"hpfq/internal/packet"
)

// FuzzScheduler drives the WF²Q+ engine with an arbitrary operation
// stream and checks the invariants that must hold for any input: no
// panics, per-session FIFO order, packet conservation, monotone virtual
// time, and agreement between Backlog and the actual queue contents.
//
// Byte encoding: each op byte b selects enqueue (b%2==0) on session
// (b>>1)%4 with length 1+(b>>3), or dequeue (b%2==1).
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 8, 9, 16, 17})
	f.Add([]byte{255, 254, 253, 252, 1, 3, 5, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		const nsess = 4
		s := NewScheduler(16)
		rates := []float64{8, 4, 2, 2}
		for i := 0; i < nsess; i++ {
			s.AddSession(i, rates[i])
		}
		var seqs [nsess]int64
		var lastOut [nsess]int64
		for i := range lastOut {
			lastOut[i] = -1
		}
		enq, deq := 0, 0
		prevV := s.VirtualTime()
		for _, b := range ops {
			if b%2 == 0 {
				sess := int(b>>1) % nsess
				length := float64(1 + b>>3)
				p := packet.New(sess, length)
				p.Seq = seqs[sess]
				seqs[sess]++
				s.Enqueue(0, p)
				enq++
			} else {
				if p := s.Dequeue(0); p != nil {
					deq++
					if p.Seq <= lastOut[p.Session] {
						t.Fatalf("session %d FIFO violated: seq %d after %d",
							p.Session, p.Seq, lastOut[p.Session])
					}
					lastOut[p.Session] = p.Seq
				}
			}
			if v := s.VirtualTime(); v < prevV {
				t.Fatalf("virtual time moved backwards: %g < %g", v, prevV)
			} else {
				prevV = v
			}
			if s.Backlog() != enq-deq {
				t.Fatalf("backlog %d, want %d", s.Backlog(), enq-deq)
			}
		}
		// Drain: every enqueued packet must come out exactly once.
		for {
			p := s.Dequeue(0)
			if p == nil {
				break
			}
			deq++
		}
		if deq != enq {
			t.Fatalf("conservation violated: %d in, %d out", enq, deq)
		}
	})
}
