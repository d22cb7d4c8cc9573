package dataplane

import (
	"io"
	"sync"
)

// Reader is the datagram ingress contract: one datagram per call, written
// into buf, its length returned. A connected *net.UDPConn satisfies the
// underlying io.Reader shape — adapt it with ReaderFrom. Readers block until
// a datagram arrives or the transport fails (a closed socket returns its
// error, which ends the RunReader loop).
type Reader interface {
	ReadPacket(buf []byte) (int, error)
}

// Writer is the datagram egress contract: one datagram per call, sent
// whole. A connected *net.UDPConn satisfies the underlying io.Writer shape —
// adapt it with WriterTo.
type Writer interface {
	WritePacket(b []byte) (int, error)
}

// Datagram is one scheduled payload handed to a BatchWriter: the raw bytes
// and the opaque routing context from IngestCtx (nil for plain Ingest).
// Writers must not retain B or Ctx past the WriteBatch call — the engine
// recycles payload buffers through its BufferPool as soon as the call
// returns.
type Datagram struct {
	B   []byte
	Ctx any
}

// BatchWriter is the batch egress contract, the sendmmsg-shaped analogue of
// Writer: deliver pkts in order, return how many were written. A non-nil
// error describes the failure of pkts[written] — the engine retries, drops,
// or requeues that datagram and re-offers the unwritten suffix. Returning
// written < len(pkts) with a nil error is treated as a transient stall (the
// suffix is retried with backoff). Writers passed to Start that implement
// BatchWriter receive each token-bucket release as whole batches; everything
// else is adapted per packet (AsBatchWriter).
type BatchWriter interface {
	WriteBatch(pkts []Datagram) (written int, err error)
}

// PayloadBatchWriter is the context-free batch egress shape — WriteBatch
// over raw payloads, no per-datagram routing context. Byte-level wrappers
// that cannot depend on this package (internal/faultconn) implement it; the
// engine bridges it to BatchWriter, dropping contexts.
type PayloadBatchWriter interface {
	WriteBatch(pkts [][]byte) (written int, err error)
}

// BatchReader is the batch ingress contract, the recvmmsg-shaped analogue
// of Reader: fill up to len(bufs) datagrams, reslicing each filled bufs[i]
// to its datagram length in place, and return how many were filled. Like
// Reader it blocks until at least one datagram is available; it must not
// block waiting for a full batch. An error means no datagram was delivered
// in this call. Callers restore each buffer to full length before reuse.
type BatchReader interface {
	ReadBatch(bufs [][]byte) (n int, err error)
}

// AsBatchWriter adapts any per-packet Writer to the BatchWriter contract.
// Writers that already implement BatchWriter are returned as-is, a
// PayloadBatchWriter is bridged (contexts are dropped — such writers take
// raw payloads by design), and anything else is driven one WritePacket per
// datagram, stopping at the first error. Contexts reach only BatchWriters,
// through Datagram.Ctx. The returned adapter reuses internal scratch and is
// not safe for concurrent WriteBatch calls.
func AsBatchWriter(w Writer) BatchWriter {
	if bw, ok := w.(BatchWriter); ok {
		return bw
	}
	if rw, ok := w.(PayloadBatchWriter); ok {
		return &payloadBatchAdapter{w: rw}
	}
	return stepBatchWriter{w}
}

// stepBatchWriter drives a per-packet Writer under the batch contract.
type stepBatchWriter struct{ w Writer }

func (a stepBatchWriter) WriteBatch(pkts []Datagram) (int, error) {
	for i := range pkts {
		if _, err := a.w.WritePacket(pkts[i].B); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// payloadBatchAdapter bridges a PayloadBatchWriter to the Datagram-level
// contract, stripping contexts into a reusable scratch slice.
type payloadBatchAdapter struct {
	w   PayloadBatchWriter
	raw [][]byte
}

func (a *payloadBatchAdapter) WriteBatch(pkts []Datagram) (int, error) {
	a.raw = a.raw[:0]
	for i := range pkts {
		a.raw = append(a.raw, pkts[i].B)
	}
	return a.w.WriteBatch(a.raw)
}

// AsBatchReader adapts any per-packet Reader to the BatchReader contract.
// Readers that already implement BatchReader are returned as-is; everything
// else delivers one datagram per ReadBatch call.
func AsBatchReader(r Reader) BatchReader {
	if br, ok := r.(BatchReader); ok {
		return br
	}
	return stepBatchReader{r}
}

type stepBatchReader struct{ r Reader }

func (a stepBatchReader) ReadBatch(bufs [][]byte) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := a.r.ReadPacket(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	return 1, nil
}

// ReaderFrom adapts an io.Reader with datagram semantics (each Read returns
// one message), e.g. a connected *net.UDPConn, to the Reader interface.
func ReaderFrom(r io.Reader) Reader { return ioReader{r} }

type ioReader struct{ r io.Reader }

func (a ioReader) ReadPacket(buf []byte) (int, error) { return a.r.Read(buf) }

// WriterTo adapts an io.Writer with datagram semantics (each Write sends one
// message), e.g. a connected *net.UDPConn, to the Writer interface.
func WriterTo(w io.Writer) Writer { return ioWriter{w} }

type ioWriter struct{ w io.Writer }

func (a ioWriter) WritePacket(b []byte) (int, error) { return a.w.Write(b) }

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
// round-trip is allocation-free at steady state. It also implements
// BatchWriter and BatchReader.
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

// WritePacket copies b into the pipe as one datagram, using a pooled buffer
// and never retaining b. It fails with io.ErrClosedPipe after Close.
func (p *Pipe) WritePacket(b []byte) (int, error) {
	select {
	case <-p.done:
		return 0, io.ErrClosedPipe
	default:
	}
	c := p.pool.Get()
	if len(b) > len(c) {
		c = make([]byte, len(b)) // oversized datagram: fall back to a one-off buffer
	}
	n := copy(c, b)
	select {
	case p.ch <- c[:n]:
		return n, nil
	case <-p.done:
		p.pool.Put(c)
		return 0, io.ErrClosedPipe
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
	select {
	case b := <-p.ch:
		n := copy(buf, b)
		p.pool.Put(b)
		return n, nil
	case <-p.done:
		select {
		case b := <-p.ch:
			n := copy(buf, b)
			p.pool.Put(b)
			return n, nil
		default:
			return 0, io.EOF
		}
	}
}

// ReadBatch blocks for the first datagram, then drains whatever else is
// immediately buffered up to len(bufs), reslicing each filled bufs[i] to
// its datagram length.
func (p *Pipe) ReadBatch(bufs [][]byte) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := p.ReadPacket(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	filled := 1
	for filled < len(bufs) {
		select {
		case b := <-p.ch:
			m := copy(bufs[filled], b)
			p.pool.Put(b)
			bufs[filled] = bufs[filled][:m]
			filled++
		default:
			return filled, nil
		}
	}
	return filled, nil
}

// Close unblocks writers and readers. Datagrams already buffered remain
// readable.
func (p *Pipe) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}
