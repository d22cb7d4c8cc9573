package dataplane

import (
	"sync"
	"sync/atomic"
)

// MaxDatagramSize is the default payload buffer capacity: large enough for
// the biggest UDP datagram, so one pooled buffer fits any read.
const MaxDatagramSize = 64 * 1024

// BufferPool recycles datagram payload buffers so the hot path — ingress
// read, staging, egress write, release — runs without steady-state heap
// allocations. Get hands out a buffer of the pool's fixed size; Put returns
// it once no reference escapes. Safe for any number of concurrent
// goroutines.
//
// The ownership contract through the engine: a buffer obtained from Get is
// the caller's until Ingest/IngestCtx returns nil — from then on the engine
// owns it and returns it to the pool after the Writer delivers (or the
// engine drops) the datagram. When Ingest returns an error the caller still
// owns the buffer and may reuse or Put it. Writers must not retain payload
// slices past the WriteBatch call for the same reason.
//
// Buffers travel in magazines of up to magazineSize (DESIGN.md S36). A
// goroutine draws from, and fills, the magazine in its own P's private slot
// of a sync.Pool, so when one CPU calls Get and another Put — an ingress
// reader feeding the pump — the two exchange a magazine per magazineSize
// buffers instead of stealing from each other's pool on every Get.
type BufferPool struct {
	size int

	// stocked holds magazines with at least one buffer; drained recycles
	// empty ones, so neither direction allocates a magazine at steady
	// state. The pools hold pointers, so no slice header is boxed into an
	// interface on the hot path.
	stocked sync.Pool
	drained sync.Pool

	// Each counter sits on its own cache line: Get and Put usually run on
	// different CPUs.
	gets, puts, allocs paddedCounter
}

// magazineSize is the most buffers a magazine holds: one write chunk, so
// the pump returns a written chunk in about one magazine.
const magazineSize = DefaultBatchSize

// magazine is a stack of pooled buffers.
type magazine struct {
	n    int
	bufs [magazineSize][]byte
}

// paddedCounter is an atomic counter preceded by enough padding that no
// two of them, or a counter and the fields before it, share a cache line.
type paddedCounter struct {
	_ [56]byte
	atomic.Int64
}

// PoolStats is a point-in-time snapshot of a BufferPool's traffic. Allocs
// counts Gets that missed the pool; at steady state it stops growing.
type PoolStats struct {
	Gets, Puts, Allocs int64
}

// NewBufferPool returns a pool of fixed-size payload buffers. Non-positive
// size selects MaxDatagramSize.
func NewBufferPool(size int) *BufferPool {
	if size <= 0 {
		size = MaxDatagramSize
	}
	return &BufferPool{size: size}
}

// sharedPool backs components that want pooling without plumbing their own
// pool (the pool-aware Pipe, the gateway's ingress loop by default).
var sharedPool = NewBufferPool(MaxDatagramSize)

// SharedBufferPool returns the process-wide pool of MaxDatagramSize
// buffers. Components that exchange datagrams through the same pool can
// recycle buffers across stage boundaries.
func SharedBufferPool() *BufferPool { return sharedPool }

// Size returns the length of the buffers Get hands out.
func (p *BufferPool) Size() int { return p.size }

// Get returns a buffer of length Size, recycled when one is available and
// freshly allocated otherwise. Contents are arbitrary.
func (p *BufferPool) Get() []byte {
	p.gets.Add(1)
	m, _ := p.stocked.Get().(*magazine)
	if m == nil {
		p.allocs.Add(1)
		return make([]byte, p.size)
	}
	m.n--
	b := m.bufs[m.n]
	m.bufs[m.n] = nil
	if m.n > 0 {
		p.stocked.Put(m)
	} else {
		p.drained.Put(m)
	}
	return b
}

// Put returns a buffer to the pool. The caller must not touch b afterwards.
// Buffers may be Put resliced (b[:n] from a Get is fine — capacity is what
// matters); foreign buffers with less capacity than Size are dropped for
// the GC rather than poisoning the pool.
func (p *BufferPool) Put(b []byte) {
	p.PutBatch([][]byte{b})
}

// PutBatch is Put for every buffer in bufs, filling one magazine at a time.
// It leaves bufs' elements as they are: clearing them is the caller's.
func (p *BufferPool) PutBatch(bufs [][]byte) {
	m, _ := p.stocked.Get().(*magazine)
	spilled := false
	var n int64
	for _, b := range bufs {
		if cap(b) < p.size {
			continue
		}
		if m == nil || m.n == magazineSize {
			if m != nil {
				p.stocked.Put(m)
				spilled = true
			}
			if m, _ = p.drained.Get().(*magazine); m == nil {
				m = new(magazine)
			}
		}
		m.bufs[m.n] = b[:p.size]
		m.n++
		n++
	}
	if m == nil {
		return
	}
	if spilled {
		// The first full magazine took this P's private slot, where the
		// next Put would find it full: trade places with m, which has room,
		// and leave the full one queued for a Get.
		full := p.stocked.Get()
		p.stocked.Put(m)
		if full != nil {
			p.stocked.Put(full)
		}
	} else {
		p.stocked.Put(m)
	}
	p.puts.Add(n)
}

// Stats snapshots the pool's counters.
func (p *BufferPool) Stats() PoolStats {
	return PoolStats{
		Gets:   p.gets.Load(),
		Puts:   p.puts.Load(),
		Allocs: p.allocs.Load(),
	}
}
