package dataplane

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpfq/internal/fec"
	"hpfq/internal/hier"
	"hpfq/internal/topo"
)

// Loss-resilient egress: ProtectClass (or a '!fec' topo clause) wraps a
// class's datagrams in the systematic erasure code from internal/fec. Every
// source datagram is stamped with the 12-byte FEC header on ingest and
// leaves in normal scheduled order; when a block completes (k sources, or a partial block ages out) the engine emits
// the block's repair datagrams — not on the protected class, but on a
// sibling *repair class* grafted next to it, so repair bandwidth is
// scheduled by the same H-PFQ machinery as everything else and can never
// starve the siblings: the repair class is a leaf with its own guaranteed
// rate (flat mode) or share (topology mode) and competes like any other.
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
// overhead needs at the initial geometry.
type FECConfig struct {
	// MaxBlockAge bounds how long a partial block waits before its repairs
	// flush. 0 selects DefaultFECBlockAge; negative disables age flushing
	// (blocks flush only when full or at Close).
	MaxBlockAge time.Duration
	// Adapt runs a fec.Controller over FECFeedback loss reports, retuning
	// the geometry at block boundaries.
	Adapt bool
}

// fecState is one protected class's live encoder-side state. All fields are
// guarded by d.mu.
type fecState struct {
	class  int
	repair int
	enc    *fec.Encoder
	ctrl   *fec.Controller // nil unless adaptive

	maxAge     float64 // seconds; negative disables age flushing
	blockStart float64 // engine-seconds of the open block's first source
	lastCtx    any     // latest source's IngestCtx context, reused for repairs
}

// ProtectClass protects an existing class with the erasure code spec (e.g.
// fec.Spec{Scheme: "rs", K: 8, R: 2}, or fec.ParseSpec("rs-8-2")): sources
// are header-stamped on ingest and each block's repair datagrams are
// emitted on a dedicated sibling repair class, grafted under the protected
// leaf's parent and scheduled like any other leaf. Ingesting directly into
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

// protectTopoLocked protects every leaf that carries a '!fec' clause, with
// default knobs, in class order. Caller holds d.mu and d.smu, or owns d.
func (d *Dataplane) protectTopoLocked(top *topo.Node) error {
	type clause struct {
		class int
		spec  fec.Spec
	}
	var cs []clause
	var err error
	top.Walk(func(n *topo.Node, _ int) {
		if err != nil || n.FEC == "" || !n.IsLeaf() {
			return
		}
		spec, perr := fec.ParseSpec(n.FEC)
		if perr != nil {
			err = fmt.Errorf("dataplane: leaf %q: %v", n.Name, perr)
			return
		}
		cs = append(cs, clause{n.Session, spec})
	})
	if err != nil {
		return err
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].class < cs[j].class })
	for _, c := range cs {
		if err := d.attachFECLocked(c.class, c.spec, FECConfig{}); err != nil {
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
	if d.classes[class] == nil {
		return fmt.Errorf("%w: %d (FEC)", ErrNoClass, class)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if d.fec[class] != nil {
		return fmt.Errorf("dataplane: class %d already FEC-protected", class)
	}
	if _, ok := d.repairOf[class]; ok {
		return fmt.Errorf("dataplane: class %d is a FEC repair class", class)
	}
	if class > math.MaxUint16 {
		return fmt.Errorf("dataplane: class %d outside the FEC stream-id range [0, %d]", class, math.MaxUint16)
	}
	repair := class + DefaultRepairClassOffset
	if err := checkClassID(repair); err != nil {
		return err
	}
	if _, dup := d.classes[repair]; dup {
		return fmt.Errorf("dataplane: FEC repair class %d already exists", repair)
	}
	enc, err := fec.NewEncoder(uint16(class), spec)
	if err != nil {
		return err
	}
	fs := &fecState{class: class, repair: repair, enc: enc}
	switch age := cfg.MaxBlockAge; {
	case age == 0:
		fs.maxAge = DefaultFECBlockAge.Seconds()
	case age < 0:
		fs.maxAge = -1
	default:
		fs.maxAge = age.Seconds()
	}
	if cfg.Adapt {
		if fs.ctrl, err = fec.NewController(spec); err != nil {
			return err
		}
	}

	var leaf *hier.NodeInfo
	nodes := d.tree.Nodes()
	for i := range nodes {
		if nodes[i].Session == class {
			leaf = &nodes[i]
			break
		}
	}
	if leaf == nil {
		return fmt.Errorf("dataplane: class %d is not a scheduler leaf", class)
	}
	var name string
	if leaf.Name != "" {
		name = leaf.Name + ".fec"
	}
	share := leaf.Share * float64(spec.R) / float64(spec.K) // already this engine's
	if err := d.tree.AddLeaf(leaf.Parent, name, repair, share); err != nil {
		return err
	}
	d.classes[repair] = d.newClassState(repair)
	d.syncRatesLocked()

	if d.fec == nil {
		d.fec = make(map[int]*fecState)
		d.repairOf = make(map[int]int)
	}
	d.fec[class] = fs
	d.repairOf[repair] = class
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

// fecRelease returns a buffer that never became a staged datagram.
func (d *Dataplane) fecRelease(b []byte) {
	if d.pool != nil {
		d.pool.Put(b)
	}
}

// encodeFECLocked stamps one ingested payload as the next source datagram of
// its class's open block and returns the staged (header-prefixed) buffer.
// On success the engine owns the original buffer and recycles it — the
// encoded copy is what travels. A block completed by this source flushes its
// repairs into the inbox immediately. Caller holds d.mu.
func (d *Dataplane) encodeFECLocked(fs *fecState, b []byte, ctx any, now float64) ([]byte, error) {
	dst := d.fecBuf(fec.SourceOverhead + len(b))
	n, full, err := fs.enc.AddSource(b, dst)
	if err != nil {
		d.fecRelease(dst)
		return nil, err
	}
	if fs.enc.Pending() == 1 {
		fs.blockStart = now
	}
	fs.lastCtx = ctx
	d.smu.Lock()
	d.tree.RecordFEC(1, 0, 0, 0)
	d.smu.Unlock()
	d.fecRelease(b)
	if full {
		d.flushFECLocked(fs, now)
	}
	return dst[:n], nil
}

// flushFECLocked emits the open block's repair datagrams into the inbox on
// the repair class, like any other accepted datagram. Repairs pass the
// repair class's admission — a draining, shedding or full repair class
// refuses the repair (recorded by reason), never the sources. Caller holds
// d.mu.
func (d *Dataplane) flushFECLocked(fs *fecState, now float64) {
	if fs.enc.Pending() == 0 {
		return
	}
	reps := fs.enc.Flush(d.fecBuf)
	rcs := d.classes[fs.repair]
	sent := 0
	d.smu.Lock()
	defer d.smu.Unlock()
	for _, rb := range reps {
		why := refusedDraining
		if rcs != nil {
			why = d.admissionLocked(rcs, len(rb))
		}
		if why != admitted {
			d.recordRefusalLocked(now, fs.repair, float64(len(rb))*8, why)
			d.fecRelease(rb)
			continue
		}
		d.acceptLocked(rcs, fs.repair, rb, fs.lastCtx, now)
		sent++
	}
	d.tree.RecordFEC(0, sent, 0, 0)
}

// flushStaleFECLocked flushes every partial block that has waited past its
// class's MaxBlockAge (or any partial block once the engine is closing) and
// refreshes d.fecWait, the pump's hint for the earliest upcoming deadline.
// Caller holds d.mu.
func (d *Dataplane) flushStaleFECLocked(now float64) {
	d.fecWait = 0
	for _, fs := range d.fecList {
		if fs.enc.Pending() == 0 {
			continue
		}
		if d.closed || (fs.maxAge >= 0 && now-fs.blockStart >= fs.maxAge) {
			d.flushFECLocked(fs, now)
			continue
		}
		if fs.maxAge < 0 {
			continue
		}
		wait := time.Duration((fs.blockStart + fs.maxAge - now) * float64(time.Second))
		if wait < minWait {
			wait = minWait
		}
		if d.fecWait == 0 || wait < d.fecWait {
			d.fecWait = wait
		}
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
	fs := d.fec[class]
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

// fecStatusLocked snapshots the FEC view for Status. Caller holds d.mu.
func (d *Dataplane) fecStatusLocked() []FECStatus {
	if len(d.fecList) == 0 {
		return nil
	}
	out := make([]FECStatus, 0, len(d.fecList))
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
