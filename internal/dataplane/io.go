package dataplane

import (
	"io"
	"sync"
)

// Datagram is one scheduled payload handed to a Writer: the raw bytes and
// the opaque routing context from IngestCtx (nil for plain Ingest). Writers
// must not retain B or Ctx past the WriteBatch call — the engine recycles
// payload buffers through its BufferPool as soon as the call returns.
type Datagram struct {
	B   []byte
	Ctx any
}

// Writer is the engine's egress contract, shaped like sendmmsg: deliver
// pkts in order and return how many were written. The pump hands each
// token-bucket release over in DefaultBatchSize chunks. A non-nil error
// describes the failure of pkts[written] — the engine retries or drops
// that datagram and re-offers the unwritten suffix. Returning
// written < len(pkts) with a nil error is treated as a transient stall (the
// suffix is retried with backoff). A writer that also has a
// SetWriteDeadline(time.Time) error method can be interrupted by the pump
// watchdog (WithWatchdog).
type Writer interface {
	WriteBatch(pkts []Datagram) (written int, err error)
}

// Pipe is an in-memory datagram conduit with message boundaries: whatever is
// passed to one WritePacket call comes out of exactly one ReadPacket call.
// It stands in for a UDP socket in tests and examples — wire a Dataplane's
// egress to one end and read released datagrams from the other. Both ends
// are safe for concurrent use.
//
// Pipe honors the engine's buffer-ownership rules: WritePacket copies into
// a buffer borrowed from its BufferPool (the shared pool by default) rather
// than allocating, never retaining the caller's slice, and ReadPacket
// returns that buffer to the pool after copying out — so a write/read
// round-trip is allocation-free at steady state. A datagram longer than the
// pool's buffers travels in a one-off buffer that never enters the pool.
type Pipe struct {
	ch   chan []byte
	done chan struct{}
	once sync.Once
	pool *BufferPool
}

// NewPipe returns a pipe buffering up to capacity in-flight datagrams
// (minimum 1), borrowing internal buffers from the shared pool.
// WritePacket blocks while the buffer is full.
func NewPipe(capacity int) *Pipe { return NewPipePool(capacity, nil) }

// NewPipePool is NewPipe with an explicit buffer pool (nil selects the
// shared pool) so tests can observe recycling traffic on their own pool.
func NewPipePool(capacity int, pool *BufferPool) *Pipe {
	if capacity < 1 {
		capacity = 1
	}
	if pool == nil {
		pool = sharedPool
	}
	return &Pipe{ch: make(chan []byte, capacity), done: make(chan struct{}), pool: pool}
}

// WritePacket copies b into the pipe as one datagram, never retaining b. It
// fails with io.ErrClosedPipe after Close.
func (p *Pipe) WritePacket(b []byte) (int, error) {
	select {
	case <-p.done:
		return 0, io.ErrClosedPipe
	default:
	}
	var c []byte
	if len(b) <= p.pool.Size() {
		c = p.pool.Get()[:len(b)]
	} else {
		c = make([]byte, len(b))
	}
	copy(c, b)
	select {
	case p.ch <- c:
		return len(c), nil
	case <-p.done:
		p.release(c)
		return 0, io.ErrClosedPipe
	}
}

// release returns c to the pool if it came from there.
func (p *Pipe) release(c []byte) {
	if len(c) <= p.pool.Size() {
		p.pool.Put(c)
	}
}

// WriteBatch delivers pkts one datagram each, stopping at the first error.
func (p *Pipe) WriteBatch(pkts []Datagram) (int, error) {
	for i := range pkts {
		if _, err := p.WritePacket(pkts[i].B); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// ReadPacket blocks for the next datagram and copies it into buf, returning
// its length (truncated to len(buf), like a UDP socket read). After Close it
// drains buffered datagrams, then returns io.EOF. The internal buffer goes
// back to the pool.
func (p *Pipe) ReadPacket(buf []byte) (int, error) {
	var c []byte
	select {
	case c = <-p.ch:
	case <-p.done:
		select {
		case c = <-p.ch:
		default:
			return 0, io.EOF
		}
	}
	n := copy(buf, c)
	p.release(c)
	return n, nil
}

// Close unblocks writers and readers. Datagrams already buffered remain
// readable.
func (p *Pipe) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}
