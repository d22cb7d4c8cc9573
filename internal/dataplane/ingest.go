package dataplane

import (
	"errors"
	"fmt"

	"hpfq/internal/fec"
	"hpfq/internal/obs"
)

// The admission side of the engine. Ingest runs every admission check
// under the admission lock (d.mu), appends the accepted datagram to the
// inbox as a value record, and returns: it never touches the scheduler or
// an envelope. The pump takes the inbox once per batch and is the only
// goroutine that moves datagrams through the scheduler (DESIGN.md S33). A
// refused datagram costs one clock reading, one scheduler-lock hold to
// record the drop, and no allocation: its error is cached per class.

// maxFreeEnvelopes bounds the pump's envelope free list, so a burst's worth
// of envelopes goes back to the garbage collector rather than staying
// cached.
const maxFreeEnvelopes = 4096

// maxUnknownErrs bounds the cache of ErrNoClass refusals: ids past it get
// a fresh error each time rather than growing the cache without limit.
const maxUnknownErrs = 256

var errEmptyDatagram = errors.New("dataplane: empty datagram")

// ClassError is the error Ingest returns when a class refuses a datagram.
// It unwraps to the refusal's sentinel — ErrNoClass, ErrClassDraining,
// ErrShedding or ErrQueueFull — so errors.Is matches it, and errors.As
// recovers the class. Ingest returns one cached value per class and kind,
// so a caller must not modify it.
type ClassError struct {
	Class int
	Err   error  // the sentinel
	What  string // detail, e.g. "packet cap"; may be empty
}

func (e *ClassError) Error() string {
	if e.What == "" {
		return fmt.Sprintf("%v: class %d", e.Err, e.Class)
	}
	return fmt.Sprintf("%v: class %d at its %s", e.Err, e.Class, e.What)
}

func (e *ClassError) Unwrap() error { return e.Err }

// refusal names why admission turned a datagram away; it indexes
// classState.errs.
type refusal int

const (
	admitted refusal = iota
	refusedDraining
	refusedShed
	refusedTail
	refusedBytes
	refusedRepair // Ingest named an FEC repair class, which the engine owns
	nRefusals
)

// admissionLocked applies the class's whole intake policy to an n-byte
// datagram: draining, shedding, then the packet and byte caps against what
// the class holds. Caller holds d.mu.
func (d *Dataplane) admissionLocked(cs *classState, s int32, n int) refusal {
	switch {
	case cs.draining:
		return refusedDraining
	case cs.shed:
		return refusedShed
	case d.capPkts > 0 && cs.accepted-d.settled[s].pkts >= d.capPkts:
		return refusedTail
	case d.capBytes > 0 && cs.acceptedBytes-d.settled[s].bytes+n > d.capBytes:
		return refusedBytes
	}
	return admitted
}

// recordRefusalLocked accounts a refused datagram in the scheduler's
// metrics. Caller holds d.smu.
func (d *Dataplane) recordRefusalLocked(now float64, class int, bits float64, why refusal) {
	switch why {
	case refusedShed:
		d.tree.RecordShed(now, class, bits, obs.ShedPressure)
	case refusedDraining:
		d.tree.RecordDropReason(now, class, bits, obs.DropDraining)
	case refusedTail:
		d.tree.RecordDropReason(now, class, bits, obs.DropTail)
	case refusedBytes:
		d.tree.RecordDropReason(now, class, bits, obs.DropBytes)
	}
}

// refuseLocked records a refused datagram and returns the class's cached
// error for the refusal. Caller holds d.mu.
func (d *Dataplane) refuseLocked(cs *classState, bits, now float64, why refusal) error {
	d.smu.Lock()
	d.recordRefusalLocked(now, int(cs.id), bits, why)
	d.smu.Unlock()
	return cs.refusal(why)
}

// refusal returns the class's error for a refusal, building the class's
// cache on its first refusal and the error on its first use. Caller holds
// d.mu.
func (cs *classState) refusal(why refusal) error {
	if cs.errs == nil {
		cs.errs = new([nRefusals]error)
	}
	if err := cs.errs[why]; err != nil {
		return err
	}
	class := int(cs.id)
	var err error
	switch why {
	case refusedDraining:
		err = &ClassError{Class: class, Err: ErrClassDraining}
	case refusedShed:
		err = &ClassError{Class: class, Err: ErrShedding}
	case refusedTail:
		err = &ClassError{Class: class, Err: ErrQueueFull, What: "packet cap"}
	case refusedBytes:
		err = &ClassError{Class: class, Err: ErrQueueFull, What: "byte cap"}
	case refusedRepair:
		err = fmt.Errorf("dataplane: class %d is the FEC repair class of %d (engine-owned)", class, cs.repairOf)
	}
	cs.errs[why] = err
	return err
}

// noClassLocked returns the ErrNoClass refusal for an unregistered class,
// cached for the first maxUnknownErrs ids seen. Caller holds d.mu.
func (d *Dataplane) noClassLocked(class int) error {
	if err := d.unknown[class]; err != nil {
		return err
	}
	err := &ClassError{Class: class, Err: ErrNoClass}
	if len(d.unknown) < maxUnknownErrs {
		if d.unknown == nil {
			d.unknown = make(map[int]error)
		}
		d.unknown[class] = err
	}
	return err
}

// Ingest stages one datagram for a class. It never blocks: when the class
// is at its packet or byte cap the datagram is tail-dropped, the drop is
// recorded in the metrics tagged with its reason, and ErrQueueFull is
// returned. After Close every Ingest deterministically returns ErrClosed
// (and records the drop with reason "closed") — intake never panics,
// whatever it races with. Safe for any number of concurrent callers.
//
// Refusals other than ErrClosed are *ClassError values naming the class;
// errors.Is matches their sentinel.
//
// Buffer ownership transfers on success only: a nil return means the
// engine owns b (and will Put it back into its WithBufferPool pool once the
// datagram is written or dropped); any error leaves b with the caller, who
// may reuse or recycle it.
func (d *Dataplane) Ingest(class int, b []byte) error {
	return d.IngestCtx(class, b, nil)
}

// IngestCtx is Ingest carrying an opaque per-datagram context. The context
// travels with the datagram through the scheduler and is handed back to the
// Writer as Datagram.Ctx — cmd/hpfqgw uses it to route each datagram
// to its client's upstream flow.
func (d *Dataplane) IngestCtx(class int, b []byte, ctx any) error {
	if len(b) == 0 {
		return errEmptyDatagram
	}
	bits := float64(len(b)) * 8
	now := d.now() // arrival stamp, or the refusal's record time
	d.mu.Lock()
	cs, slot := d.classLocked(class)
	switch {
	case d.closed:
		if cs != nil {
			d.smu.Lock()
			d.tree.RecordDropReason(now, class, bits, obs.DropClosed)
			d.smu.Unlock()
		}
		d.mu.Unlock()
		return ErrClosed
	case cs == nil:
		err := d.noClassLocked(class)
		d.mu.Unlock()
		return err
	}
	if why := d.admissionLocked(cs, slot, len(b)); why != admitted {
		err := d.refuseLocked(cs, bits, now, why)
		d.mu.Unlock()
		return err
	}
	if cs.repairOf >= 0 {
		err := cs.refusal(refusedRepair)
		d.mu.Unlock()
		return err
	}
	if len(b) > fec.MaxSource && d.fecOf(class) != nil {
		// The pump's FEC stage could not code it (fec.Encoder.AddSource).
		d.mu.Unlock()
		return fmt.Errorf("fec: %d-byte datagram exceeds codable size %d", len(b), fec.MaxSource)
	}
	wasEmpty := len(d.inbox) == 0
	d.inbox = append(d.inbox, d.admitLocked(cs, slot, b, ctx, now))
	d.mu.Unlock()
	if wasEmpty {
		// A non-empty inbox already has a nudge on its way: the pump takes
		// the whole inbox after the nudge that announced its first entry.
		d.signal()
	}
	return nil
}

// admitLocked counts an admitted datagram against its class, in slot s,
// and the engine, and returns its inbox record. Caller holds d.mu.
func (d *Dataplane) admitLocked(cs *classState, s int32, b []byte, ctx any, now float64) inboxRecord {
	cs.accepted++
	cs.acceptedBytes += len(b)
	d.accepted++
	return inboxRecord{b: b, ctx: ctx, leaf: cs.leaf, arrival: now, slot: s}
}
