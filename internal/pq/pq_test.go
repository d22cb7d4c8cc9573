package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapBasic(t *testing.T) {
	h := NewHeap(4)
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(1, 2.0)
	h.Push(7, 9.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if id := h.MinID(); id != 1 {
		t.Fatalf("MinID = %d, want 1", id)
	}
	if k := h.MinKey(); k != 2.0 {
		t.Fatalf("MinKey = %g, want 2", k)
	}
	if !h.Contains(7) || h.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if k := h.Key(7); k != 9.0 {
		t.Fatalf("Key(7) = %g, want 9", k)
	}
	id, k, ok := h.Pop()
	if !ok || id != 1 || k != 2.0 {
		t.Fatalf("Pop = (%d,%g,%v), want (1,2,true)", id, k, ok)
	}
	h.Remove(7)
	if h.Contains(7) {
		t.Fatal("Remove failed")
	}
	if id, _, _ := h.Min(); id != 3 {
		t.Fatalf("Min = %d, want 3", id)
	}
}

func TestHeapUpdate(t *testing.T) {
	h := NewHeap(4)
	for i := 0; i < 8; i++ {
		h.Push(i, float64(i))
	}
	h.Update(7, -1)
	if h.MinID() != 7 {
		t.Fatal("decrease-key did not surface id 7")
	}
	h.Update(7, 100)
	if h.MinID() != 0 {
		t.Fatal("increase-key did not sink id 7")
	}
	// Drain in order.
	prev := -1e18
	for !h.Empty() {
		_, k, _ := h.Pop()
		if k < prev {
			t.Fatalf("pop order violated: %g after %g", k, prev)
		}
		prev = k
	}
}

func TestHeapFIFOTieBreak(t *testing.T) {
	h := NewHeap(4)
	h.Push(5, 1.0)
	h.Push(2, 1.0)
	h.Push(9, 1.0)
	var order []int
	for !h.Empty() {
		id, _, _ := h.Pop()
		order = append(order, id)
	}
	want := []int{5, 2, 9}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie order = %v, want %v (insertion order)", order, want)
		}
	}
}

func TestHeapClear(t *testing.T) {
	h := NewHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Clear()
	if !h.Empty() || h.Contains(0) || h.Contains(1) {
		t.Fatal("Clear left state behind")
	}
	h.Push(0, 3) // reusable after clear
	if h.MinKey() != 3 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestHeapPanics(t *testing.T) {
	h := NewHeap(2)
	h.Push(0, 1)
	assertPanics(t, "duplicate push", func() { h.Push(0, 2) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestHeapSortProperty: draining any pushed key multiset yields it sorted.
func TestHeapSortProperty(t *testing.T) {
	f := func(keys []float64) bool {
		if len(keys) > 512 {
			keys = keys[:512]
		}
		h := NewHeap(len(keys))
		for i, k := range keys {
			h.Push(i, k)
		}
		got := make([]float64, 0, len(keys))
		for !h.Empty() {
			_, k, _ := h.Pop()
			got = append(got, k)
		}
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHeapRandomOpsProperty: a long random sequence of push/update/remove/pop
// matches a brute-force reference implementation.
func TestHeapRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap(8)
		ref := map[int]float64{}
		refSeq := map[int]int{}
		seq := 0
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0: // push
				id := rng.Intn(64)
				if _, ok := ref[id]; ok {
					continue
				}
				k := float64(rng.Intn(20))
				seq++
				h.Push(id, k)
				ref[id] = k
				refSeq[id] = seq
			case 1: // update
				for id := range ref {
					k := float64(rng.Intn(20))
					seq++
					h.Update(id, k)
					ref[id] = k
					refSeq[id] = seq
					break
				}
			case 2: // remove
				for id := range ref {
					h.Remove(id)
					delete(ref, id)
					delete(refSeq, id)
					break
				}
			case 3: // pop and compare against reference min
				if len(ref) == 0 {
					if _, _, ok := h.Pop(); ok {
						return false
					}
					continue
				}
				wantID, wantK, wantSeq := -1, 1e18, 1<<62
				for id, k := range ref {
					if k < wantK || (k == wantK && refSeq[id] < wantSeq) {
						wantID, wantK, wantSeq = id, k, refSeq[id]
					}
				}
				id, k, ok := h.Pop()
				if !ok || id != wantID || k != wantK {
					return false
				}
				delete(ref, id)
				delete(refSeq, id)
			}
			if h.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
