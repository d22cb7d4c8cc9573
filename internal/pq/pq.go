// Package pq provides indexed min-heaps used by the packet fair queueing
// schedulers. An indexed heap maps small dense integer IDs (session or child
// indices) to ordered keys (virtual start or finish times) and supports
// decrease-key/remove in O(log N), which is what gives WF²Q+ its overall
// O(log N) complexity (paper §3.4). Keys are virtual times in seconds.
package pq

// Heap is an indexed binary min-heap of (id, key) pairs. IDs must be
// non-negative and should be dense; storage grows to the largest ID seen.
// Ties on key are broken by insertion order (FIFO), which makes scheduler
// behaviour deterministic and matches the arrival-order tie-breaking used in
// fair queueing implementations.
type Heap struct {
	items []entry
	pos   []int // id → index in items, -1 if absent
	seq   uint64
}

type entry struct {
	id  int
	key float64
	seq uint64
}

// NewHeap returns an empty heap with capacity hints for n IDs.
func NewHeap(n int) *Heap {
	return &Heap{
		items: make([]entry, 0, n),
		pos:   make([]int, 0, n),
	}
}

// Len reports the number of elements in the heap.
func (h *Heap) Len() int { return len(h.items) }

// Empty reports whether the heap has no elements.
func (h *Heap) Empty() bool { return len(h.items) == 0 }

// Contains reports whether id is currently in the heap.
func (h *Heap) Contains(id int) bool {
	return id < len(h.pos) && h.pos[id] >= 0
}

// Key returns the key stored for id. It panics if id is absent.
func (h *Heap) Key(id int) float64 {
	return h.items[h.pos[id]].key
}

// Push inserts id with the given key. It panics if id is already present.
func (h *Heap) Push(id int, key float64) {
	if h.Contains(id) {
		panic("pq: Push of id already in heap")
	}
	h.growPos(id)
	h.seq++
	h.items = append(h.items, entry{id: id, key: key, seq: h.seq})
	i := len(h.items) - 1
	h.pos[id] = i
	h.up(i)
}

// Update changes the key of id (in either direction). It panics if id is
// absent.
func (h *Heap) Update(id int, key float64) {
	i := h.pos[id]
	h.seq++
	h.items[i].key = key
	h.items[i].seq = h.seq
	if !h.up(i) {
		h.down(i)
	}
}

// Remove deletes id from the heap. It panics if id is absent.
func (h *Heap) Remove(id int) {
	i := h.pos[id]
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	h.pos[id] = -1
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// Min returns the id and key at the top of the heap without removing it.
// ok is false when the heap is empty.
func (h *Heap) Min() (id int, key float64, ok bool) {
	if len(h.items) == 0 {
		var zero float64
		return 0, zero, false
	}
	return h.items[0].id, h.items[0].key, true
}

// MinKey returns the smallest key. It panics if the heap is empty.
func (h *Heap) MinKey() float64 { return h.items[0].key }

// MinID returns the id with the smallest key. It panics if the heap is
// empty.
func (h *Heap) MinID() int { return h.items[0].id }

// Pop removes and returns the minimum element. ok is false when empty.
func (h *Heap) Pop() (id int, key float64, ok bool) {
	if len(h.items) == 0 {
		var zero float64
		return 0, zero, false
	}
	top := h.items[0]
	h.Remove(top.id)
	return top.id, top.key, true
}

// Clear removes every element.
func (h *Heap) Clear() {
	for _, e := range h.items {
		h.pos[e.id] = -1
	}
	h.items = h.items[:0]
}

func (h *Heap) growPos(id int) {
	for len(h.pos) <= id {
		h.pos = append(h.pos, -1)
	}
}

func (h *Heap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].id] = i
	h.pos[h.items[j].id] = j
}

func (h *Heap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
