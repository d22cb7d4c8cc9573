package dataplane

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpfq/internal/fec"
	"hpfq/internal/topo"
)

// Loss-resilient egress: ProtectClass (or a '!fec' topo clause) wraps a
// class's datagrams in the systematic erasure code from internal/fec. The
// pump stamps every source with the 12-byte FEC header; when a block
// completes (k sources, or a partial block ages out) it emits the block's
// repair datagrams — not on the protected class, but on a sibling *repair
// class* grafted next to it, so repair bandwidth is scheduled by the same
// H-PFQ machinery as everything else and can never starve the siblings:
// the repair class is a leaf with its own guaranteed rate (flat mode) or
// share (topology mode) and competes like any other.
//
// The receive side (fec.Decoder, driven by cmd/hpfqgw's ingress or any
// peer) reconstructs erased sources from the survivors and reports its loss
// estimate back through FECFeedback; with FECConfig.Adapt the engine runs a
// fec.Controller per protected class and retunes the (k,r) geometry at
// block boundaries to track the observed loss.

// DefaultRepairClassOffset derives every repair class id: protected class
// c's repairs ride class c+1000.
const DefaultRepairClassOffset = 1000

// DefaultFECBlockAge is how long a partial block may wait for its k-th
// source before the pump flushes its repairs anyway, bounding the repair
// latency of an idling stream.
const DefaultFECBlockAge = 20 * time.Millisecond

// FECConfig tunes one protected class (ProtectClass). The zero value is a
// sensible default everywhere. The repair class itself derives from the
// tree: its id is class+DefaultRepairClassOffset, its leaf is named
// "<leaf>.fec" beside the protected leaf, and its share is the protected
// leaf's share (or rate) times R/K — exactly the bandwidth the code's
// overhead needs at the initial geometry. A partial block flushes its
// repairs after DefaultFECBlockAge.
type FECConfig struct {
	// Adapt runs a fec.Controller over FECFeedback loss reports, retuning
	// the geometry at block boundaries.
	Adapt bool
}

// fecState is one protected class's live encoder-side state. Its one
// writer is the pump, under d.smu (encodeFEC), besides ProtectClass,
// FECFeedback and Status, which hold both locks.
type fecState struct {
	class  int
	repair int
	enc    *fec.Encoder
	ctrl   *fec.Controller // nil unless adaptive

	blockStart float64 // arrival stamp of the open block's first source
	lastCtx    any     // latest source's IngestCtx context, reused for repairs
}

// fecRepair is a flushed repair datagram awaiting admission, to be staged
// in front of staging index at.
type fecRepair struct {
	at  int
	fs  *fecState
	rec inboxRecord
	why refusal
}

// ProtectClass protects an existing class with the erasure code spec (e.g.
// fec.Spec{Scheme: "rs", K: 8, R: 2}, or fec.ParseSpec("rs-8-2")): the
// pump header-stamps the sources and emits each block's repair datagrams
// on a dedicated sibling repair class, grafted under the protected leaf's
// parent and scheduled like any other leaf. Ingesting directly into
// a repair class is refused — the engine owns it. Protection is
// configuration: it is refused once the engine has started, and a refusal
// leaves the engine unchanged. A '!fec' topo clause is the spec-side
// spelling.
func (d *Dataplane) ProtectClass(class int, spec fec.Spec, cfg FECConfig) error {
	d.lock()
	defer d.unlock()
	switch {
	case d.closed:
		return ErrClosed
	case d.started:
		return fmt.Errorf("dataplane: protect class %d: engine already started", class)
	}
	return d.attachFECLocked(class, spec, cfg)
}

// protectTopoLocked protects every topology leaf that carries a '!fec'
// clause (classBounds lists them), with default knobs, in class order.
// Caller holds d.mu and d.smu, or owns d.
func (d *Dataplane) protectTopoLocked(leaves []*topo.Node) error {
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Session < leaves[j].Session })
	for _, n := range leaves {
		spec, err := fec.ParseSpec(n.FEC)
		if err != nil {
			return fmt.Errorf("dataplane: leaf %q: %v", n.Name, err)
		}
		if err := d.attachFECLocked(n.Session, spec, FECConfig{}); err != nil {
			return err
		}
	}
	return nil
}

// attachFECLocked checks a protection request, grafts the repair class as a
// leaf beside the registered protected class, under the same parent, and
// arms the encoder. Every check runs before the graft, and the graft is the
// only step that touches the engine, so a refusal leaves it as it was.
// Caller holds d.mu and d.smu.
func (d *Dataplane) attachFECLocked(class int, spec fec.Spec, cfg FECConfig) error {
	cs, _ := d.classLocked(class)
	if cs == nil {
		return fmt.Errorf("%w: %d (FEC)", ErrNoClass, class)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if d.fecOf(class) != nil {
		return fmt.Errorf("dataplane: class %d already FEC-protected", class)
	}
	if cs.repairOf >= 0 {
		return fmt.Errorf("dataplane: class %d is a FEC repair class", class)
	}
	if class > math.MaxUint16 {
		return fmt.Errorf("dataplane: class %d outside the FEC stream-id range [0, %d]", class, math.MaxUint16)
	}
	repair := class + DefaultRepairClassOffset
	if err := checkClassID(repair); err != nil {
		return err
	}
	if rcs, _ := d.classLocked(repair); rcs != nil {
		return fmt.Errorf("dataplane: FEC repair class %d already exists", repair)
	}
	enc, err := fec.NewEncoder(uint16(class), spec)
	if err != nil {
		return err
	}
	fs := &fecState{class: class, repair: repair, enc: enc}
	if cfg.Adapt {
		if fs.ctrl, err = fec.NewController(spec); err != nil {
			return err
		}
	}

	var name string
	if n := cs.leaf.Name(); n != "" {
		name = n + ".fec"
	}
	share := cs.leaf.Share() * float64(spec.R) / float64(spec.K) // already this engine's
	if err := d.tree.AddLeaf(cs.leaf.Parent(), name, repair, share); err != nil {
		return err
	}
	d.addClassLocked(d.tree.Leaf(repair)).repairOf = int32(class)
	d.rebuildShedOrderLocked()

	d.fecList = append(d.fecList, fs)
	sort.Slice(d.fecList, func(i, j int) bool { return d.fecList[i].class < d.fecList[j].class })
	return nil
}

// fecBuf supplies a datagram buffer of at least n bytes: pooled when the
// engine owns a pool whose buffers are big enough, heap otherwise.
func (d *Dataplane) fecBuf(n int) []byte {
	if d.pool != nil && n <= d.pool.Size() {
		return d.pool.Get()[:n]
	}
	return make([]byte, n)
}

// fecRelease returns a buffer that never became, or stopped being, a staged
// datagram.
func (d *Dataplane) fecRelease(b []byte) {
	if d.pool != nil {
		d.pool.Put(b)
	}
}

// fecOf returns protected class id's encoder state, or nil. Caller holds
// d.mu or d.smu, or is the pump: fecList is fixed once the engine starts.
func (d *Dataplane) fecOf(id int) *fecState {
	for _, fs := range d.fecList {
		if fs.class == id {
			return fs
		}
	}
	return nil
}

// encodeFEC is the pump's FEC stage, run on each taken inbox while a class
// is protected (DESIGN.md S30). stampChunk encodes under d.smu; then,
// under both locks, each class is charged the headers its sources gained
// and each repair passes its repair class's admission — a draining,
// shedding or full repair class refuses it, recorded by reason — and
// admitted repairs join the staging right behind their block's last
// source.
func (d *Dataplane) encodeFEC(now float64, brownout, closing bool) {
	for i := d.stampChunk(0, now, brownout, closing); i < len(d.staging); {
		i = d.stampChunk(i, now, brownout, closing)
	}
	if len(d.fecCharge) == 0 && len(d.fecReps) == 0 {
		return
	}
	d.lock()
	defer d.unlock()
	for _, s := range d.fecCharge { // a class holding datagrams keeps its slot
		d.classes[s].acceptedBytes += fec.SourceOverhead
	}
	d.fecCharge = d.fecCharge[:0]
	reps, merged, at, sent := d.fecReps, d.fecSpare[:0], 0, 0
	d.fecReps = reps[:0]
	defer clear(reps)
	for i := range reps {
		rp := &reps[i]
		rcs, rs := d.classLocked(rp.fs.repair)
		if rp.why = refusedDraining; rcs != nil {
			rp.why = d.admissionLocked(rcs, rs, len(rp.rec.b))
		}
		if rp.why == admitted {
			merged = append(append(merged, d.staging[at:rp.at]...), d.admitLocked(rcs, rs, rp.rec.b, rp.rec.ctx, rp.rec.arrival))
			at = rp.at
			sent++
		}
	}
	if sent > 0 {
		merged = append(merged, d.staging[at:]...)
		clear(d.staging)
		d.fecSpare, d.staging = d.staging[:0], merged
		d.tree.RecordFEC(0, sent, 0, 0)
	}
	for _, rp := range reps { // last: a tracer's Drop hook may panic
		if rp.why != admitted {
			d.fecRelease(rp.rec.b)
			d.recordRefusalLocked(now, rp.fs.repair, float64(len(rp.rec.b))*8, rp.why)
		}
	}
}

// stampChunk encodes up to one DefaultBatchSize chunk of the taken inbox
// from index i under one d.smu hold and returns the index after it. Unless
// brownout passes them unprotected, it copies each protected source not
// yet stamped into a buffer behind its FEC header, recycling the caller's,
// and a block it completes flushes its repairs into d.fecReps. The chunk
// that reaches the end flushes every partial block past DefaultFECBlockAge
// (any, once closing) and sets d.fecWait to the earliest age deadline.
func (d *Dataplane) stampChunk(i int, now float64, brownout, closing bool) int {
	d.smu.Lock()
	defer d.smu.Unlock()
	end := min(i+DefaultBatchSize, len(d.staging))
	if brownout {
		i = end
	}
	before := len(d.fecCharge)
	for ; i < end; i++ {
		r := &d.staging[i]
		fs := d.fecOf(r.leaf.Session())
		if fs == nil || r.stamped { // a record a pump panic put back may be
			continue
		}
		dst := d.fecBuf(fec.SourceOverhead + len(r.b))
		n, full, err := fs.enc.AddSource(r.b, dst)
		if err != nil { // ingested before the class was protected
			d.fecRelease(dst)
			continue
		}
		if fs.enc.Pending() == 1 {
			fs.blockStart = r.arrival
		}
		fs.lastCtx = r.ctx
		d.fecRelease(r.b)
		r.b, r.stamped = dst[:n], true
		d.fecCharge = append(d.fecCharge, r.slot)
		if full {
			d.flushBlock(fs, i+1, r.arrival)
		}
	}
	if n := len(d.fecCharge) - before; n > 0 {
		d.tree.RecordFEC(n, 0, 0, 0)
	}
	if end < len(d.staging) {
		return end
	}
	maxAge := DefaultFECBlockAge.Seconds()
	d.fecWait = 0
	for _, fs := range d.fecList {
		if fs.enc.Pending() == 0 {
			continue
		}
		if closing || now-fs.blockStart >= maxAge {
			d.flushBlock(fs, end, now)
			continue
		}
		wait := max(time.Duration((fs.blockStart+maxAge-now)*float64(time.Second)), minWait)
		if d.fecWait == 0 || wait < d.fecWait {
			d.fecWait = wait
		}
	}
	return end
}

// flushBlock queues fs's open block's repairs in d.fecReps, to be staged at
// index at. Caller holds d.smu.
func (d *Dataplane) flushBlock(fs *fecState, at int, arrival float64) {
	for _, b := range fs.enc.Flush(d.fecBuf) {
		d.fecReps = append(d.fecReps, fecRepair{at: at, fs: fs, rec: inboxRecord{b: b, ctx: fs.lastCtx, arrival: arrival}})
	}
}

// FECFeedback feeds receive-side decode results for a protected class back
// into the engine: recovered/unrecoverable datagram counts land in the
// metrics (FECRecovered/FECUnrecoverable), and loss — the receiver's loss
// estimate in [0,1], e.g. fec.Decoder.LossEstimate; pass a negative value
// to report counts only — drives the adaptive controller, retuning the
// geometry at the next block boundary when FECConfig.Adapt is on.
func (d *Dataplane) FECFeedback(class, recovered, unrecoverable int, loss float64) error {
	d.lock()
	defer d.unlock()
	fs := d.fecOf(class)
	if fs == nil {
		return fmt.Errorf("dataplane: class %d is not FEC-protected", class)
	}
	if recovered > 0 || unrecoverable > 0 {
		d.tree.RecordFEC(0, 0, recovered, unrecoverable)
	}
	if fs.ctrl != nil && loss >= 0 {
		fs.ctrl.Observe(loss)
		if err := fs.enc.Retune(fs.ctrl.Tune()); err != nil {
			return err
		}
	}
	return nil
}

// FECStatus is one protected class's row in Status.FEC.
type FECStatus struct {
	Class       int
	RepairClass int
	Spec        string // current geometry, e.g. "rs-8-2"
	Pending     int    // sources waiting in the open block
	Adaptive    bool
	LossEst     float64 // controller's loss estimate; 0 unless adaptive
}

// fecStatusLocked snapshots the FEC view for Status, nil without FEC.
// Caller holds d.mu and d.smu.
func (d *Dataplane) fecStatusLocked() []FECStatus {
	var out []FECStatus
	for _, fs := range d.fecList {
		st := FECStatus{
			Class:       fs.class,
			RepairClass: fs.repair,
			Spec:        fs.enc.Spec().String(),
			Pending:     fs.enc.Pending(),
			Adaptive:    fs.ctrl != nil,
		}
		if fs.ctrl != nil {
			st.LossEst = fs.ctrl.Estimate()
		}
		out = append(out, st)
	}
	return out
}
