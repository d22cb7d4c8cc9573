// Package faultconn wraps per-datagram readers and writers with
// deterministic, seeded fault injection: transient (EAGAIN-style) errors,
// short writes, i.i.d. silent drops, and stalled writes. It exists so the
// retry/backoff and drop-accounting paths of internal/dataplane and
// cmd/hpfqgw can be exercised reproducibly from tests instead of waiting for
// a flaky network; the gateway's -fault.stall flag exposes the stall mode,
// which drives the pump watchdog end to end.
//
// All randomness comes from one seeded math/rand source per wrapper, so a
// given (seed, operation sequence) pair always injects the same faults.
// Faults compose in a fixed order per operation: stall (writers only),
// transient error, short write (writers only), silent drop. The wrappers are
// safe for concurrent use; under concurrency the per-operation fault
// sequence follows the serialization order of the calls.
package faultconn

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// PacketWriter is the per-datagram egress being wrapped, e.g. the gateway's
// flow-socket sink.
type PacketWriter interface {
	WritePacket(b []byte) (int, error)
}

// PacketReader is the per-datagram ingress being wrapped, e.g. a listen
// socket's reader.
type PacketReader interface {
	ReadPacket(buf []byte) (int, error)
}

// InjectedError is the transient fault returned for probability- or
// cadence-triggered errors. It reports itself transient (and satisfies the
// net.Error Timeout shape), so the data-plane's classifier retries it.
type InjectedError struct {
	Op string // "read" or "write"
	N  uint64 // 1-based operation count at injection time
}

// Error describes the injected fault.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultconn: injected transient %s error (op %d)", e.Op, e.N)
}

// Transient marks the error retryable for the data-plane's classifier.
func (e *InjectedError) Transient() bool { return true }

// Timeout makes the error satisfy the net.Error timeout convention.
func (e *InjectedError) Timeout() bool { return true }

// Temporary is kept for callers still using the deprecated net.Error
// method.
func (e *InjectedError) Temporary() bool { return true }

// ErrShortWrite is returned by injected short writes; the datagram was not
// forwarded, so a retry resends it whole. It wraps io.ErrShortWrite so the
// data-plane's classifier treats it as transient.
var ErrShortWrite = fmt.Errorf("faultconn: injected short write: %w", io.ErrShortWrite)

// StallError is returned when an injected stall is interrupted by a write
// deadline (SetWriteDeadline), mirroring the net.Conn timeout convention:
// it reports Timeout and Transient, so the data-plane's classifier retries
// rather than dropping.
type StallError struct {
	N uint64 // 1-based operation count at injection time
}

// Error describes the interrupted stall.
func (e *StallError) Error() string {
	return fmt.Sprintf("faultconn: stalled write aborted by deadline (op %d)", e.N)
}

// Transient marks the error retryable for the data-plane's classifier.
func (e *StallError) Transient() bool { return true }

// Timeout makes the error satisfy the net.Error timeout convention.
func (e *StallError) Timeout() bool { return true }

// Temporary is kept for callers still using the deprecated net.Error
// method.
func (e *StallError) Temporary() bool { return true }

// Stats counts the wrapper's operations and injected faults.
type Stats struct {
	Ops         uint64 // operations attempted through the wrapper
	Transient   uint64 // injected transient errors
	ShortWrites uint64 // injected short writes (writers only)
	Dropped     uint64 // silently discarded datagrams
	Stalls      uint64 // writes that entered an injected stall
}

// config collects the fault plan.
type config struct {
	seed      int64
	errRate   float64 // transient error probability per op
	errEvery  int     // additionally fail every nth op (0 = off)
	shortRate float64 // short-write probability per write
	dropRate  float64 // silent-drop probability per op

	stallOn    bool          // stall mode enabled
	stallAfter uint64        // writes beyond this count block
	stallDur   time.Duration // how long each stalled write blocks (0 = forever)
}

// Option configures a fault-injecting wrapper.
type Option func(*config)

// WithSeed fixes the random source; the same seed replays the same fault
// sequence. The default seed is 1.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithErrorRate injects a transient error on each operation with
// probability p (0 ≤ p ≤ 1).
func WithErrorRate(p float64) Option { return func(c *config) { c.errRate = p } }

// WithErrorEvery injects a transient error deterministically on every nth
// operation (counting from the first), independent of the probability knob.
func WithErrorEvery(n int) Option { return func(c *config) { c.errEvery = n } }

// WithShortWrites makes each write return half the datagram's length and
// ErrShortWrite with probability p, without forwarding anything.
func WithShortWrites(p float64) Option { return func(c *config) { c.shortRate = p } }

// WithDropRate silently discards the datagram with probability p while
// reporting success — the loss mode retries cannot see.
func WithDropRate(p float64) Option { return func(c *config) { c.dropRate = p } }

// WithStall makes every write past the nth *block* for dur instead of
// erroring — a wedged peer or full socket buffer, the failure mode retries
// cannot see and only a watchdog can break. dur = 0 blocks forever. A
// stalled write can be interrupted by SetWriteDeadline, in which case it
// returns a transient StallError (the net.Conn timeout shape), which is
// exactly the escape hatch the data-plane watchdog uses. Stalls are
// decided before every probabilistic knob.
func WithStall(after uint64, dur time.Duration) Option {
	return func(c *config) {
		c.stallOn = true
		c.stallAfter = after
		c.stallDur = dur
	}
}

// injector is the shared seeded fault engine behind Reader and Writer.
type injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cfg   config
	stats Stats
}

func newInjector(opts []Option) *injector {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return &injector{rng: rand.New(rand.NewSource(cfg.seed)), cfg: cfg}
}

// verdict is one operation's fate, decided under the injector lock.
type verdict struct {
	n     uint64
	stall bool // write blocks (wedge mode)
	err   bool // transient error
	short bool
	drop  bool
}

// decide rolls the operation's fate. All randomness happens here, under the
// lock, so the sequence of verdicts is a pure function of the seed and the
// serialization order.
func (j *injector) decide(isWrite bool) verdict {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats.Ops++
	v := verdict{n: j.stats.Ops}
	if isWrite && j.cfg.stallOn && j.stats.Ops > j.cfg.stallAfter {
		j.stats.Stalls++
		v.stall = true
		return v
	}
	if j.cfg.errEvery > 0 && j.stats.Ops%uint64(j.cfg.errEvery) == 0 {
		v.err = true
	}
	if !v.err && j.cfg.errRate > 0 && j.rng.Float64() < j.cfg.errRate {
		v.err = true
	}
	if v.err {
		j.stats.Transient++
		return v
	}
	if isWrite && j.cfg.shortRate > 0 && j.rng.Float64() < j.cfg.shortRate {
		j.stats.ShortWrites++
		v.short = true
		return v
	}
	if j.cfg.dropRate > 0 && j.rng.Float64() < j.cfg.dropRate {
		j.stats.Dropped++
		v.drop = true
	}
	return v
}

// uncountDrop retracts a drop verdict whose datagram never existed (the
// wrapped reader failed instead of supplying one).
func (j *injector) uncountDrop() {
	j.mu.Lock()
	j.stats.Dropped--
	j.mu.Unlock()
}

// Stats returns a copy of the fault counters.
func (j *injector) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Writer wraps a PacketWriter with the configured fault plan.
type Writer struct {
	inner PacketWriter
	inj   *injector

	// Write-deadline state for the stall mode. wake is closed and replaced
	// whenever the deadline changes, so in-flight stalls re-evaluate it.
	dmu      sync.Mutex
	deadline time.Time
	wake     chan struct{}
}

// NewWriter returns w wrapped with fault injection.
func NewWriter(w PacketWriter, opts ...Option) *Writer {
	return &Writer{inner: w, inj: newInjector(opts), wake: make(chan struct{})}
}

// Stats returns the wrapper's operation and fault counters.
func (w *Writer) Stats() Stats { return w.inj.Stats() }

// SetWriteDeadline sets the deadline for stalled writes, matching the
// net.Conn contract: a deadline in the past (or at the current instant)
// immediately interrupts any write currently blocked in an injected stall,
// which then fails with a transient StallError; the zero time clears the
// deadline. Non-stalled writes ignore the deadline — the wrapped writer is
// assumed non-blocking.
func (w *Writer) SetWriteDeadline(t time.Time) error {
	w.dmu.Lock()
	w.deadline = t
	close(w.wake)
	w.wake = make(chan struct{})
	w.dmu.Unlock()
	return nil
}

// stall blocks for the injected stall duration (forever when zero),
// honoring the write deadline: a deadline expiry ends the stall with a
// StallError. Returns nil when the stall elapsed and the write may proceed.
func (w *Writer) stall(v verdict) error {
	var done <-chan time.Time
	if d := w.inj.cfg.stallDur; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		done = t.C
	}
	for {
		w.dmu.Lock()
		deadline := w.deadline
		wake := w.wake
		w.dmu.Unlock()
		var expire <-chan time.Time
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem <= 0 {
				return &StallError{N: v.n}
			}
			t := time.NewTimer(rem)
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-done:
			return nil
		case <-expire:
			return &StallError{N: v.n}
		case <-wake:
			// Deadline changed; re-evaluate.
		}
	}
}

// WritePacket applies the fault plan, then forwards to the wrapped writer
// unless the operation was injected away.
func (w *Writer) WritePacket(b []byte) (int, error) {
	v := w.inj.decide(true)
	switch {
	case v.stall:
		if err := w.stall(v); err != nil {
			return 0, err
		}
	case v.err:
		return 0, &InjectedError{Op: "write", N: v.n}
	case v.short:
		return len(b) / 2, ErrShortWrite
	case v.drop:
		return len(b), nil // discarded, reported as sent
	}
	return w.inner.WritePacket(b)
}

// WriteBatch applies the fault plan to each datagram in order and stops at
// the first error, returning how many datagrams were delivered (injected
// silent drops report success, exactly as in WritePacket) and the error
// that stopped pkts[written]. Each element is one operation against the
// seeded plan, so a batch of n takes the same fault sequence as n
// WritePacket calls — batching changes grouping, never the faults.
func (w *Writer) WriteBatch(pkts [][]byte) (int, error) {
	for i, b := range pkts {
		if _, err := w.WritePacket(b); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// Reader wraps a PacketReader with the configured fault plan.
type Reader struct {
	inner PacketReader
	inj   *injector
}

// NewReader returns r wrapped with fault injection.
func NewReader(r PacketReader, opts ...Option) *Reader {
	return &Reader{inner: r, inj: newInjector(opts)}
}

// Stats returns the wrapper's operation and fault counters.
func (r *Reader) Stats() Stats { return r.inj.Stats() }

// ReadPacket applies the fault plan: injected errors return before touching
// the wrapped reader; injected drops consume one datagram from it and try
// again, so the loss is invisible to the caller except as a missing
// message.
func (r *Reader) ReadPacket(buf []byte) (int, error) {
	for {
		v := r.inj.decide(false)
		switch {
		case v.err:
			return 0, &InjectedError{Op: "read", N: v.n}
		case v.drop:
			if _, err := r.inner.ReadPacket(buf); err != nil {
				r.inj.uncountDrop() // nothing was there to discard
				return 0, err
			}
			continue // datagram lost in transit; read the next one
		}
		return r.inner.ReadPacket(buf)
	}
}

// ReadBatch applies the fault plan one operation at a time: it delivers at
// most one datagram per call, reslicing bufs[0] to its length. A
// fault-wrapped reader therefore batches at width 1 — fault injection
// serializes the read path by design, keeping the per-operation fault
// sequence identical to ReadPacket and never losing a datagram the plan
// didn't drop. It is the batch shape the gateway's listen loop reads.
func (r *Reader) ReadBatch(bufs [][]byte) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := r.ReadPacket(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	return 1, nil
}
