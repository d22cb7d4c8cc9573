package dataplane

import (
	"errors"
	"fmt"

	"hpfq/internal/obs"
)

// The admission side of the engine. Ingest runs every admission check
// under the admission lock (d.mu), appends the accepted datagram to the
// inbox, and returns: it never touches the scheduler. The pump takes the
// inbox once per batch and is the only goroutine that moves datagrams
// through the scheduler (DESIGN.md S33). A refused datagram costs one clock
// reading, one scheduler-lock hold to record the drop, and no allocation:
// its error is cached on the class.

// maxFreeEnvelopes bounds the envelope free list, so a burst's worth of
// envelopes goes back to the garbage collector rather than staying cached.
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
	nRefusals
)

// admissionLocked applies the class's whole intake policy to an n-byte
// datagram: draining, shedding, then the packet and byte caps. Caller
// holds d.mu.
func (d *Dataplane) admissionLocked(cs *classState, n int) refusal {
	switch {
	case cs.draining:
		return refusedDraining
	case cs.shed:
		return refusedShed
	case d.capPkts > 0 && cs.packets >= d.capPkts:
		return refusedTail
	case d.capBytes > 0 && cs.bytes+n > d.capBytes:
		return refusedBytes
	}
	return admitted
}

// recordRefusalLocked accounts a refused datagram in the scheduler's
// metrics. Caller holds d.mu and d.smu.
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
func (d *Dataplane) refuseLocked(cs *classState, class int, bits, now float64, why refusal) error {
	d.smu.Lock()
	d.recordRefusalLocked(now, class, bits, why)
	d.smu.Unlock()
	if cs.errs[why] == nil {
		e := &ClassError{Class: class}
		switch why {
		case refusedDraining:
			e.Err = ErrClassDraining
		case refusedShed:
			e.Err = ErrShedding
		case refusedTail:
			e.Err, e.What = ErrQueueFull, "packet cap"
		case refusedBytes:
			e.Err, e.What = ErrQueueFull, "byte cap"
		}
		cs.errs[why] = e
	}
	return cs.errs[why]
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
	cs := d.classes[class]
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
	if why := d.admissionLocked(cs, len(b)); why != admitted {
		err := d.refuseLocked(cs, class, bits, now, why)
		d.mu.Unlock()
		return err
	}
	wasEmpty := len(d.inbox) == 0
	if len(d.fecList) > 0 {
		if prot, isRepair := d.repairOf[class]; isRepair {
			d.mu.Unlock()
			return fmt.Errorf("dataplane: class %d is the FEC repair class of %d (engine-owned)", class, prot)
		}
		if fs := d.fec[class]; fs != nil && !d.ov.brownout {
			// Brownout (overload.go) suspends FEC encoding: source
			// datagrams pass unprotected instead of spending CPU and link
			// share on redundancy the engine cannot afford right now.
			// Stage the header-stamped copy instead; the engine recycles the
			// caller's buffer (success is guaranteed past this point, so
			// ownership has effectively transferred). A completed block
			// flushes its repairs into the inbox right here.
			enc, err := d.encodeFECLocked(fs, b, ctx, now)
			if err != nil {
				d.mu.Unlock()
				return err
			}
			b = enc
		}
	}
	d.acceptLocked(cs, class, b, ctx, now)
	d.mu.Unlock()
	if wasEmpty {
		// A non-empty inbox already has a nudge on its way: the pump takes
		// the whole inbox after the nudge that announced its first entry.
		d.signal()
	}
	return nil
}

// acceptLocked wraps an admitted datagram in an envelope, appends it to the
// inbox, and counts it against its class. Caller holds d.mu.
func (d *Dataplane) acceptLocked(cs *classState, class int, b []byte, ctx any, now float64) {
	var env *envelope
	if n := len(d.free); n > 0 {
		env = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		env = &envelope{}
	}
	env.pkt.Session = class
	env.pkt.Length = float64(len(b)) * 8
	env.pkt.Arrival = now // sojourn basis for the AQM
	env.pkt.Payload = env
	env.dg = datagram{b: b, ctx: ctx}
	env.cs = cs
	d.inbox = append(d.inbox, env)
	cs.packets++
	cs.bytes += len(b)
	d.staged++
}
