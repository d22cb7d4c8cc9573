package dataplane

import (
	"fmt"
	"math"
	"sort"

	"hpfq/internal/hier"
	"hpfq/internal/obs"
	"hpfq/internal/pifo"
)

// The control-plane surface of a running engine: live class and node
// mutations plus the Status snapshot the admin server (internal/ctl)
// publishes. Every mutation takes both engine locks (admission, then
// scheduler) and so applies between two of the pump's scheduler chunks — a
// retune, graft, removal, or policy swap lands atomically with respect to
// scheduling: no pump stop, no packet loss for surviving classes.
//
// The drain story for RemoveClass: the class flips to draining (Ingest
// refuses new datagrams with ErrClassDraining, recorded with reason
// "draining"), its staged remainder leaves in normal scheduled order, and
// the pump finalizes the removal — detaching the leaf and rebalancing its
// siblings — once the class quiesces. Removal is therefore asynchronous but
// loss-free; Status reports the in-between state.

// SetRate retunes class id's whole-link guaranteed rate in bits/sec on the
// live engine (hier.SetSessionRate). Over a topology the leaf's share is
// re-solved against its siblings, so sibling rates shift proportionally; in
// flat mode only the class itself changes. Fails when the scheduling policy
// on the affected path has no live-retune hook (notably the exact-GPS
// clocks WFQ and WF²Q).
func (d *Dataplane) SetRate(id int, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("dataplane: invalid class rate %g", rate)
	}
	d.lock()
	defer d.unlock()
	if d.closed {
		return ErrClosed
	}
	cs, _ := d.classLocked(id)
	if cs == nil {
		return fmt.Errorf("%w: %d", ErrNoClass, id)
	}
	if cs.draining {
		return fmt.Errorf("%w: %d", ErrClassDraining, id)
	}
	if err := d.tree.SetSessionRate(id, d.perShard(rate)); err != nil {
		return err
	}
	d.rebuildShedOrderLocked()
	return nil
}

// SetWeight retunes the named topology node's service share φ relative to
// its siblings; the subtree's guaranteed rates rescale live. Topology mode
// only — flat classes carry absolute rates (SetRate).
func (d *Dataplane) SetWeight(name string, share float64) error {
	d.lock()
	defer d.unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.tree.SetNodeShare(name, share); err != nil {
		return err
	}
	d.rebuildShedOrderLocked()
	return nil
}

// AddLeafClass grafts a new class as a session leaf under the named
// interior node of the live topology. Siblings dilute proportionally (the
// paper's link-sharing semantics — there is no strict reservation to
// exceed). ceil > 0 additionally caps the class at a whole-link ceiling
// (see SetCeil); 0 leaves it uncapped. Under a flat engine's root ("")
// share is the class's whole-link rate, as in AddClass.
func (d *Dataplane) AddLeafClass(parent, name string, id int, share, ceil float64) error {
	d.lock()
	defer d.unlock()
	return d.addLeafLocked(parent, name, id, share, ceil)
}

// addLeafLocked grafts class id under the named tree node with its
// ceiling, both in whole-link units. Caller holds d.mu and d.smu.
func (d *Dataplane) addLeafLocked(parent, name string, id int, share, ceil float64) error {
	if err := checkClassID(id); err != nil {
		return err
	}
	if d.closed {
		return ErrClosed
	}
	if ceil != 0 && !validCeil(ceil) {
		return fmt.Errorf("dataplane: invalid ceil %g for class %d", ceil, id)
	}
	if cs, _ := d.classLocked(id); cs != nil {
		return fmt.Errorf("dataplane: duplicate class %d", id)
	}
	if err := d.tree.AddLeaf(parent, name, id, d.leafShare(share)); err != nil {
		return err
	}
	d.addClassLocked(d.tree.Leaf(id))
	if ceil > 0 {
		_ = d.tree.SetCeil(id, d.perShard(ceil), d.schedTime(d.now())) // the leaf exists: cannot fail
	}
	d.rebuildShedOrderLocked()
	return nil
}

// RemoveClass retires a class from the live engine without losing its
// staged datagrams: the class starts draining (new Ingest calls get
// ErrClassDraining), the remainder leaves in scheduled order, and the pump
// finalizes the removal once the class quiesces — freed bandwidth flows to
// the siblings. The call is idempotent while the drain runs. It fails
// upfront, before anything changes, when the scheduler cannot remove live
// (no FlowRemover hook on the affected policy, or the last leaf of a
// topology node; a flat engine's last class may go).
func (d *Dataplane) RemoveClass(id int) error {
	d.lock()
	defer d.unlock()
	cs, _ := d.classLocked(id)
	switch {
	case d.closed:
		return ErrClosed
	case cs == nil:
		return fmt.Errorf("%w: %d", ErrNoClass, id)
	case cs.draining:
		return nil
	}
	if err := d.tree.CanRemoveLeaf(id); err != nil {
		return err
	}
	cs.draining = true
	if !d.tryFinalizeLocked(id) {
		d.draining = append(d.draining, id)
	}
	d.signal() // let an idle pump run finalization
	return nil
}

// SetCeil caps class id at an absolute whole-link ceiling in bits/sec;
// ceil 0 removes the cap. The engine stays work-conserving below the
// ceiling: the class borrows whatever its siblings leave idle, and the
// scheduler holds it back only while its ceiling bucket is in deficit.
func (d *Dataplane) SetCeil(id int, ceil float64) error {
	d.lock()
	defer d.unlock()
	if d.closed {
		return ErrClosed
	}
	if cs, _ := d.classLocked(id); cs == nil {
		return fmt.Errorf("%w: %d", ErrNoClass, id)
	}
	if ceil != 0 && !validCeil(ceil) {
		return fmt.Errorf("dataplane: invalid ceil %g for class %d", ceil, id)
	}
	if err := d.tree.SetCeil(id, d.perShard(ceil), d.schedTime(d.now())); err != nil {
		return err
	}
	d.signal() // a lifted cap may have released a held class
	return nil
}

// SetNodeCeil caps a named topology node at an absolute whole-link ceiling
// in bits/sec, bounding its whole subtree; ceil 0 removes the cap. A leaf's
// name caps its class; "" names the root, the whole engine, in either mode.
func (d *Dataplane) SetNodeCeil(name string, ceil float64) error {
	d.lock()
	defer d.unlock()
	if d.closed {
		return ErrClosed
	}
	if ceil != 0 && !validCeil(ceil) {
		return fmt.Errorf("dataplane: invalid ceil %g for node %q", ceil, name)
	}
	if err := d.tree.SetNodeCeil(name, d.perShard(ceil), d.schedTime(d.now())); err != nil {
		return err
	}
	d.signal()
	return nil
}

// SetPolicy swaps a scheduling discipline on the live engine: the named
// interior node's over a topology, or the flat engine's root (node "").
// The standing backlog survives, re-stamped against the fresh policy's
// virtual clock (see pifo.Node.SetPolicy).
func (d *Dataplane) SetPolicy(node string, f pifo.Factory) error {
	d.lock()
	defer d.unlock()
	if d.closed {
		return ErrClosed
	}
	return d.tree.SetNodePolicy(node, f)
}

// SetPolicyName is SetPolicy resolving the discipline from the pifo policy
// registry by name ("WF2Q+", "SCFQ", "DRR", …).
func (d *Dataplane) SetPolicyName(node, policy string) error {
	f, ok := pifo.Lookup(policy)
	if !ok {
		return fmt.Errorf("dataplane: unknown policy %q (have %v)", policy, pifo.Names())
	}
	return d.SetPolicy(node, f)
}

// tryFinalizeLocked completes a draining class's removal once it holds no
// datagrams anywhere in the engine. The detach can lag one extra batch
// (hier.Tree pins the dequeued head until the next Dequeue); the pump just
// retries. Caller holds d.mu and d.smu.
func (d *Dataplane) tryFinalizeLocked(id int) bool {
	cs, s := d.classLocked(id)
	if cs == nil {
		return true
	}
	if n, _ := d.queuedLocked(s); n > 0 {
		return false
	}
	if d.tree.RemoveLeaf(id) != nil {
		return false
	}
	d.classes[s] = classState{id: -1} // the tree freed the slot
	d.rebuildShedOrderLocked()
	return true
}

// finalizeDraining retries removal finalization for every draining class;
// the pump calls it once per batch. Caller holds d.mu.
func (d *Dataplane) finalizeDraining() {
	if len(d.draining) == 0 {
		return
	}
	d.smu.Lock()
	defer d.smu.Unlock()
	kept := d.draining[:0]
	for _, id := range d.draining {
		if !d.tryFinalizeLocked(id) {
			kept = append(kept, id)
		}
	}
	d.draining = kept
}

// Status is the control plane's one-call view of a running engine:
// configuration, lifecycle, the scheduler's metric snapshot, the live
// topology, and per-class staging state.
type Status struct {
	Algorithm string  // scheduling discipline ("WF2Q+", "H-WF2Q+", …)
	Rate      float64 // link rate, bits/sec
	Mode      string  // "flat" or "topology"
	Borrowing bool    // a ceiling is configured (see SetCeil)
	Shards    int     // engines behind a sharding front; 0 for a bare engine
	Started   bool
	Closed    bool
	Restarts  int // pump panic-recoveries

	Scheduler obs.Metrics     // per-class counters, delays, drops by reason
	Nodes     []hier.NodeInfo // live tree, preorder: a flat engine's is its root and one leaf per class
	Classes   []ClassStatus   // per-class staging state, sorted by id
	Pool      *PoolStats      // buffer-pool counters; nil without a pool
	FEC       []FECStatus     // protected classes, sorted by id; nil without FEC
	Health    HealthStatus    // overload/liveness report (overload.go)
}

// ClassStatus is one class's row in Status.
type ClassStatus struct {
	ID          int
	Name        string  // topology leaf name; "" in flat mode
	Rate        float64 // guaranteed rate, bits/sec
	Ceil        float64 // ceiling, bits/sec; 0 = uncapped
	Queued      int     // datagrams staged (inbox + scheduler)
	QueuedBytes int
	Draining    bool
	Shedding    bool // overload controller currently refusing intake
}

// Status snapshots the engine for the admin server. Safe to call
// concurrently with Ingest, mutations, and the pump.
func (d *Dataplane) Status() Status {
	d.lock()
	defer d.unlock()
	return d.statusLocked()
}

// statusLocked builds the Status. Caller holds d.mu and d.smu.
func (d *Dataplane) statusLocked() Status {
	st := Status{
		Algorithm: d.tree.Name(),
		Rate:      d.rate,
		Mode:      "flat",
		Borrowing: d.tree.Capped(),
		Started:   d.started,
		Closed:    d.closed,
		Restarts:  d.restarts,
		Scheduler: d.tree.Snapshot(),
	}
	if !d.tree.Flat() {
		st.Mode = "topology"
	}
	st.Nodes = d.tree.Nodes()
	st.Classes = make([]ClassStatus, 0, len(d.classes))
	for s := range d.classes {
		cs := &d.classes[s]
		if cs.id < 0 {
			continue
		}
		id := int(cs.id)
		queued, queuedBytes := d.queuedLocked(int32(s))
		st.Classes = append(st.Classes, ClassStatus{
			ID:          id,
			Name:        cs.leaf.Name(),
			Rate:        cs.leaf.Rate(),
			Ceil:        d.tree.Ceil(id),
			Queued:      queued,
			QueuedBytes: queuedBytes,
			Draining:    cs.draining,
			Shedding:    cs.shed,
		})
	}
	sort.Slice(st.Classes, func(i, j int) bool { return st.Classes[i].ID < st.Classes[j].ID })
	if d.pool != nil {
		ps := d.pool.Stats()
		st.Pool = &ps
	}
	st.FEC = d.fecStatusLocked()
	st.Health = d.healthLocked()
	return st
}
