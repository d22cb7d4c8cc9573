package main

import "hpfq"

// Batch widths: a listen reader fills at most maxIngressBatch datagrams per
// read, a flow's return path at most maxReturnBatch.
const (
	maxIngressBatch = 32
	maxReturnBatch  = 16
)

// rxBatch is one reader's pooled receive buffers. It starts with one
// buffer, doubles (up to max) only when a read fills every slot, and when a
// read comes back short it hands every buffer past the smallest power of
// two that held the datagrams back to the pool; a read that returns
// nothing (a deadline, a transient error) leaves one buffer. Used by one
// goroutine.
type rxBatch struct {
	pool *hpfq.BufferPool
	max  int
	full [][]byte // owned buffers at full length, one per slot
	view [][]byte // the last read: view[:n] are its datagrams
}

func newRxBatch(pool *hpfq.BufferPool, max int) *rxBatch {
	b := &rxBatch{pool: pool, max: max, full: make([][]byte, 1, max), view: make([][]byte, max)}
	b.full[0] = pool.Get()
	return b
}

// read fills the batch from rd and returns how many datagrams arrived in
// view, then resizes the batch for the next read.
func (b *rxBatch) read(rd batchReader) (int, error) {
	v := b.view[:len(b.full)]
	copy(v, b.full)
	n, err := rd.ReadBatch(v)
	switch w := len(b.full); {
	case n == w && w < b.max:
		for i := w; i < min(2*w, b.max); i++ {
			b.full = append(b.full, b.pool.Get())
		}
	case n < w:
		keep := 1
		for keep < n {
			keep *= 2
		}
		for i := keep; i < w; i++ {
			b.pool.Put(b.full[i])
			b.full[i] = nil
		}
		b.full = b.full[:keep]
	}
	return n, err
}

// take gives datagram i's buffer away (the engine owns it now) and puts a
// fresh one in its slot.
func (b *rxBatch) take(i int) { b.full[i] = b.pool.Get() }

// release returns every buffer to the pool.
func (b *rxBatch) release() {
	for i, buf := range b.full {
		b.pool.Put(buf)
		b.full[i] = nil
	}
	b.full = b.full[:0]
}
