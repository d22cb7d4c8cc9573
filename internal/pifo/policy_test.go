package pifo

import (
	"testing"

	"hpfq/internal/packet"
)

// The four non-fair-queueing policies introduced with the substrate: strict
// priority, earliest deadline first, shortest remaining processing time,
// least slack time first. Each test drives the flat host through a small
// hand-checked scenario, plus a node-form spot check.

func drain(s *Sched, now float64) []int {
	var order []int
	for s.Backlog() > 0 {
		p := s.Dequeue(now)
		order = append(order, p.Session)
		now += p.Length / 1e6
	}
	return order
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStrictPriority(t *testing.T) {
	f, ok := Lookup("SP")
	if !ok {
		t.Fatal("SP not registered")
	}
	s := NewSched(f, 1e6)
	for id := 0; id < 3; id++ {
		s.AddSession(id, 1e5)
	}
	// Arrivals in inverse priority order; service must follow flow id.
	s.Enqueue(0, packet.New(2, 8000))
	s.Enqueue(0, packet.New(1, 8000))
	s.Enqueue(0, packet.New(0, 8000))
	s.Enqueue(0, packet.New(2, 8000))
	s.Enqueue(0, packet.New(0, 8000))
	if got, want := drain(s, 0), []int{0, 0, 1, 2, 2}; !equalInts(got, want) {
		t.Fatalf("SP order %v, want %v", got, want)
	}

	// A custom priority function inverts the ranking.
	inv := StrictPriorityWith(func(id int, _ float64) float64 { return -float64(id) })
	s2 := NewSched(inv, 1e6)
	for id := 0; id < 3; id++ {
		s2.AddSession(id, 1e5)
	}
	s2.Enqueue(0, packet.New(0, 8000))
	s2.Enqueue(0, packet.New(1, 8000))
	s2.Enqueue(0, packet.New(2, 8000))
	if got, want := drain(s2, 0), []int{2, 1, 0}; !equalInts(got, want) {
		t.Fatalf("SP custom order %v, want %v", got, want)
	}
}

func TestEDF(t *testing.T) {
	f, _ := Lookup("EDF")
	s := NewSched(f, 1e6)
	s.AddSession(0, 1e5) // deadline = now + L/1e5
	s.AddSession(1, 1e6) // deadline = now + L/1e6: 10x tighter
	// Same arrival instant and length: session 1's tighter deadline wins
	// despite session 0 arriving first.
	s.Enqueue(0, packet.New(0, 8000))
	s.Enqueue(0, packet.New(1, 8000))
	if got, want := drain(s, 0), []int{1, 0}; !equalInts(got, want) {
		t.Fatalf("EDF order %v, want %v", got, want)
	}

	// An earlier arrival beats a tighter rate when its absolute deadline is
	// earlier: deadline(0) = 0 + 0.08, deadline(1) = 0.1 + 0.008.
	s = NewSched(f, 1e6)
	s.AddSession(0, 1e5)
	s.AddSession(1, 1e6)
	s.Enqueue(0, packet.New(0, 8000))
	s.Enqueue(0.1, packet.New(1, 8000))
	if got, want := drain(s, 0.1), []int{0, 1}; !equalInts(got, want) {
		t.Fatalf("EDF absolute-deadline order %v, want %v", got, want)
	}

	// Custom relative deadline: constant per flow, smaller id = later.
	custom := EDFWith(func(id int, _, _ float64) float64 { return float64(3 - id) })
	s2 := NewSched(custom, 1e6)
	for id := 0; id < 3; id++ {
		s2.AddSession(id, 1e5)
	}
	for id := 0; id < 3; id++ {
		s2.Enqueue(0, packet.New(id, 8000))
	}
	if got, want := drain(s2, 0), []int{2, 1, 0}; !equalInts(got, want) {
		t.Fatalf("EDF custom order %v, want %v", got, want)
	}
}

func TestSRPT(t *testing.T) {
	f, _ := Lookup("SRPT")
	s := NewSched(f, 1e6)
	s.AddSession(0, 1e5)
	s.AddSession(1, 1e5)
	s.AddSession(2, 1e5)
	// Shortest job first regardless of arrival order; equal rates make the
	// rank proportional to length alone.
	s.Enqueue(0, packet.New(0, 16000))
	s.Enqueue(0, packet.New(1, 4000))
	s.Enqueue(0, packet.New(2, 8000))
	if got, want := drain(s, 0), []int{1, 2, 0}; !equalInts(got, want) {
		t.Fatalf("SRPT order %v, want %v", got, want)
	}
}

func TestLSTF(t *testing.T) {
	f, _ := Lookup("LSTF")
	s := NewSched(f, 1e6)
	s.AddSession(0, 1e5) // slack L/1e5
	s.AddSession(1, 1e6) // slack L/1e6: less slack, served first
	s.Enqueue(0, packet.New(0, 8000))
	s.Enqueue(0, packet.New(1, 8000))
	if got, want := drain(s, 0), []int{1, 0}; !equalInts(got, want) {
		t.Fatalf("LSTF order %v, want %v", got, want)
	}

	// Slack accrues from the arrival time: a late arrival with small slack
	// still waits behind an old packet whose slack has nearly expired.
	s = NewSched(f, 1e6)
	s.AddSession(0, 1e5)
	s.AddSession(1, 1e6)
	s.Enqueue(0, packet.New(0, 8000))   // rank 0.08
	s.Enqueue(0.1, packet.New(1, 8000)) // rank 0.108
	if got, want := drain(s, 0.1), []int{0, 1}; !equalInts(got, want) {
		t.Fatalf("LSTF accrual order %v, want %v", got, want)
	}

	custom := LSTFWith(func(id int, _, _ float64) float64 { return float64(id) })
	s2 := NewSched(custom, 1e6)
	for id := 0; id < 3; id++ {
		s2.AddSession(id, 1e5)
	}
	for id := 2; id >= 0; id-- {
		s2.Enqueue(0, packet.New(id, 8000))
	}
	if got, want := drain(s2, 0), []int{0, 1, 2}; !equalInts(got, want) {
		t.Fatalf("LSTF custom order %v, want %v", got, want)
	}
}

// TestNewPolicyNodeForms drives each new policy's node form through a
// priority-shaped Push/Pop exchange.
func TestNewPolicyNodeForms(t *testing.T) {
	for _, name := range []string{"SP", "EDF", "SRPT", "LSTF", "FIFO"} {
		f, ok := Lookup(name)
		if !ok || f.Node == nil {
			t.Fatalf("%s: no node form", name)
		}
		n := NewNode(f, 1e6)
		n.AddChild(0, 1e5)
		n.AddChild(1, 1e6)
		n.Push(0, 8000, false)
		n.Push(1, 8000, false)
		id, ok := n.Pop()
		if !ok {
			t.Fatalf("%s: empty pop", name)
		}
		// SP prioritizes by id (0 first); the deadline/slack/size families
		// all favor child 1 here (tighter rate, same length) — except SRPT,
		// which ranks purely by length/link rate and falls back to FIFO
		// arrival order on the tie, and FIFO, which serves in push order.
		want := 1
		if name == "SP" || name == "SRPT" || name == "FIFO" {
			want = 0
		}
		if id != want {
			t.Errorf("%s node: first pop child %d, want %d", name, id, want)
		}
		if _, ok := n.Pop(); !ok {
			t.Errorf("%s node: second pop empty", name)
		}
		if n.Backlogged() {
			t.Errorf("%s node: still backlogged after draining", name)
		}
	}

	// FIFO ranks a child by its push count: pushed in the reverse of id
	// (and rate) order, the children pop in push order.
	n := NewNode(factories["FIFO"], 1e6)
	for id := 0; id < 4; id++ {
		n.AddChild(id, float64(id+1)*1e5)
	}
	for id := 3; id >= 0; id-- {
		n.Push(id, 8000, false)
	}
	for want := 3; want >= 0; want-- {
		if id, _ := n.Pop(); id != want {
			t.Fatalf("FIFO node: popped child %d, want %d", id, want)
		}
	}
}
