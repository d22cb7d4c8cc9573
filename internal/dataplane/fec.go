package dataplane

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpfq/internal/fec"
)

// Loss-resilient egress: WithFEC wraps a class's datagrams in the systematic
// erasure code from internal/fec. Every source datagram is stamped with the
// 12-byte FEC header on ingest and leaves in normal scheduled order; when a
// block completes (k sources, or a partial block ages out) the engine emits
// the block's repair datagrams — not on the protected class, but on a
// sibling *repair class* grafted next to it, so repair bandwidth is
// scheduled by the same WF²Q+/H-PFQ machinery as everything else and can
// never starve the siblings: the repair class has its own guaranteed rate
// (flat mode) or leaf share (topology mode) and competes like any leaf.
//
// The receive side (fec.Decoder, driven by cmd/hpfqgw's ingress or any
// peer) reconstructs erased sources from the survivors and reports its loss
// estimate back through FECFeedback; with FECConfig.Adapt the engine runs a
// fec.Controller per protected class and retunes the (k,r) geometry at
// block boundaries to track the observed loss.

// DefaultRepairClassOffset derives a repair class id when FECConfig leaves
// RepairClass zero: protected class c's repairs ride class c+1000.
const DefaultRepairClassOffset = 1000

// DefaultFECBlockAge is how long a partial block may wait for its k-th
// source before the pump flushes its repairs anyway, bounding the repair
// latency of an idling stream.
const DefaultFECBlockAge = 20 * time.Millisecond

// FECConfig tunes one protected class (WithFEC). The zero value is a
// sensible default everywhere.
type FECConfig struct {
	// RepairClass is the sibling class id carrying the repair datagrams.
	// 0 derives class+DefaultRepairClassOffset.
	RepairClass int
	// RepairRate is the repair class's guaranteed rate in bits/sec (flat
	// mode). 0 derives rate·R/K from the protected class — exactly the
	// bandwidth the code's overhead needs at the initial geometry.
	RepairRate float64
	// RepairShare is the repair leaf's service share in topology mode.
	// 0 derives share·R/K from the protected leaf. Ignored in flat mode.
	RepairShare float64
	// RepairName names the repair leaf in topology mode, grafted under the
	// protected leaf's parent; "" derives "<leaf>.fec".
	RepairName string
	// MaxBlockAge bounds how long a partial block waits before its repairs
	// flush. 0 selects DefaultFECBlockAge; negative disables age flushing
	// (blocks flush only when full or at Close).
	MaxBlockAge time.Duration
	// Adapt runs a fec.Controller over FECFeedback loss reports, retuning
	// the geometry within Controller's bounds at block boundaries.
	Adapt bool
	// Controller bounds the adaptive geometry; zero-value fields take the
	// fec defaults. Ignored unless Adapt.
	Controller fec.ControllerConfig
}

// fecPending is a WithFEC request waiting for its class to exist.
type fecPending struct {
	spec fec.Spec
	cfg  FECConfig
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

// WithFEC protects a class with the erasure code spec (e.g. fec.Spec
// {Scheme: "rs", K: 8, R: 2}, or fec.ParseSpec("rs-8-2")): sources are
// header-stamped on ingest and each block's repair datagrams are emitted on
// a dedicated sibling repair class scheduled like any other leaf. In
// topology mode the repair leaf is grafted at construction; in flat mode it
// is grafted by the AddClass call that registers the protected class.
// Ingesting directly into a repair class is refused — the engine owns it.
func WithFEC(class int, spec fec.Spec, cfg FECConfig) Option {
	return func(c *config) {
		if c.fec == nil {
			c.fec = make(map[int]fecPending)
		}
		c.fec[class] = fecPending{spec: spec, cfg: cfg}
	}
}

// attachFECLocked grafts the repair class next to an existing protected
// class and arms the encoder. Caller holds d.mu and d.smu.
func (d *Dataplane) attachFECLocked(class int, p fecPending) error {
	if d.classes[class] == nil {
		return fmt.Errorf("%w: %d (FEC)", ErrNoClass, class)
	}
	fs, err := d.prepareFECLocked(class, p)
	if err != nil {
		return err
	}
	return d.graftFECLocked(fs, p)
}

// prepareFECLocked runs every check that can refuse a WithFEC request and
// builds the class's encoder-side state without touching the engine, so a
// refusal leaves the engine as it was: AddClass runs it before registering
// the protected class. Caller holds d.mu and d.smu.
func (d *Dataplane) prepareFECLocked(class int, p fecPending) (*fecState, error) {
	if err := p.spec.Validate(); err != nil {
		return nil, err
	}
	if d.fec[class] != nil {
		return nil, fmt.Errorf("dataplane: class %d already FEC-protected", class)
	}
	if class < 0 || class > math.MaxUint16 {
		return nil, fmt.Errorf("dataplane: class %d outside the FEC stream-id range [0, %d]", class, math.MaxUint16)
	}
	repair := p.cfg.RepairClass
	if repair == 0 {
		repair = class + DefaultRepairClassOffset
	}
	if err := checkClassID(repair); err != nil {
		return nil, err
	}
	if _, dup := d.classes[repair]; dup || repair == class {
		return nil, fmt.Errorf("dataplane: FEC repair class %d already exists", repair)
	}
	enc, err := fec.NewEncoder(uint16(class), p.spec)
	if err != nil {
		return nil, err
	}
	fs := &fecState{class: class, repair: repair, enc: enc}
	switch age := p.cfg.MaxBlockAge; {
	case age == 0:
		fs.maxAge = DefaultFECBlockAge.Seconds()
	case age < 0:
		fs.maxAge = -1
	default:
		fs.maxAge = age.Seconds()
	}
	if p.cfg.Adapt {
		if fs.ctrl, err = fec.NewController(p.spec, p.cfg.Controller); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// graftFECLocked adds the prepared repair class beside its registered
// protected class and arms the encoder. Only a topology graft can refuse
// here. Caller holds d.mu and d.smu.
func (d *Dataplane) graftFECLocked(fs *fecState, p fecPending) error {
	class, repair := fs.class, fs.repair
	overhead := float64(p.spec.R) / float64(p.spec.K)
	if d.tree != nil {
		var leaf string
		var share float64
		for _, info := range d.tree.Nodes() {
			if info.Session == class {
				leaf, share = info.Name, info.Share
				// Graft under the protected leaf's parent.
				name := p.cfg.RepairName
				if name == "" {
					name = info.Name + ".fec"
				}
				rshare := p.cfg.RepairShare
				if rshare <= 0 {
					rshare = share * overhead
				}
				if err := d.tree.AddLeaf(info.Parent, name, repair, rshare); err != nil {
					return err
				}
				break
			}
		}
		if leaf == "" {
			return fmt.Errorf("dataplane: class %d is not a topology leaf", class)
		}
		d.classes[repair] = d.newClassState(d.tree.SessionRate(repair))
		d.syncRatesLocked()
	} else {
		rate := p.cfg.RepairRate
		if rate <= 0 {
			rate = d.classes[class].rate * overhead
		}
		d.flat.AddSession(repair, rate)
		d.classes[repair] = d.newClassState(rate)
		d.rebuildHTBLocked()
	}
	d.rebuildClassOrderLocked()

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
	d.q.RecordFEC(1, 0, 0, 0)
	d.smu.Unlock()
	d.fecRelease(b)
	if full {
		d.flushFECLocked(fs, now)
	}
	return dst[:n], nil
}

// flushFECLocked emits the open block's repair datagrams into the inbox on
// the repair class, like any other accepted datagram. Repairs respect the
// repair class's caps — a full repair queue sheds the repair (tail-drop,
// recorded), never the sources. Caller holds d.mu.
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
		if rcs != nil && !rcs.draining {
			why = d.capsLocked(rcs, len(rb))
		}
		if why != admitted {
			d.recordRefusalLocked(now, fs.repair, float64(len(rb))*8, why)
			d.fecRelease(rb)
			continue
		}
		d.acceptLocked(rcs, fs.repair, rb, fs.lastCtx, now)
		sent++
	}
	d.q.RecordFEC(0, sent, 0, 0)
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
		d.q.RecordFEC(0, 0, recovered, unrecoverable)
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
