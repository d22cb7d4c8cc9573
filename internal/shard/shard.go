// Package shard multiplies the data-plane engine across CPUs: N independent
// dataplane.Dataplane instances — each with its own staging queues,
// scheduler tree, token bucket, FEC encoders, overload tracker, and pump
// goroutine — behind one thin Sharded front. Flows are partitioned, never
// shared: a flow key maps to exactly one shard (jump consistent hash in
// software mode, the kernel's SO_REUSEPORT 4-tuple hash when the gateway
// runs one listener socket per shard), so the engines take no cross-shard
// locks — each shard's single-writer pump and single-lock ingest are
// exactly the monolithic engine's, N times over. (cmd/hpfqgw's forward flow
// lookup, one table shared by every reader, is the one shared lock left in
// front of them.)
//
// This is the Bennett & Zhang schedulers scaled out the only way they
// parallelize cleanly: a WF²Q+/H-PFQ instance is inherently sequential
// (every dequeue reads one shared virtual clock), so instead of threading
// one scheduler, each shard runs a full copy over 1/N of the link with
// 1/N of every class's guarantee. With flows spread by hash, each class's
// aggregate service across shards converges to its configured share, while
// per-flow packet order is preserved (a flow lives on one shard).
//
// The shared link stays work-conserving through the rate splitter
// (splitter.go): per-shard token buckets refill at a live pace rate, and
// each tick the splitter re-lends idle shards' slices to backlogged ones,
// deficit-carrying so long-run service stays near N equal slices. Control
// operations fan out unchanged to every shard under one mutation lock; each
// engine divides whole-link absolute values by N itself
// (dataplane.WithShardScale), and merged views sum them back, so the
// control plane keeps speaking whole-link units.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/fec"
	"hpfq/internal/hier"
	"hpfq/internal/obs"
	"hpfq/internal/overload"
	"hpfq/internal/pifo"
	"hpfq/internal/wallclock"
)

// config collects construction options.
type config struct {
	tick time.Duration
	clk  wallclock.Clock
}

// Option configures a Sharded front at construction.
type Option func(*config)

// WithSplitTick sets the rate splitter's redistribution cadence (default
// DefaultSplitTick). Shorter ticks track bursts tighter; longer ticks cost
// less wakeup churn.
func WithSplitTick(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.tick = d
		}
	}
}

// WithClock replaces the splitter's wall clock (for tests). This does not
// affect the shards' engines — pass dataplane.WithClock among the engine
// options for that.
func WithClock(clk wallclock.Clock) Option {
	return func(c *config) {
		if clk != nil {
			c.clk = clk
		}
	}
}

// Sharded is N data-plane engines behind one front. Construct with New,
// register classes with AddClass (flat mode), start the pumps with Start,
// feed datagrams with IngestKey/IngestKeyCtx (or pin ingest to a shard via
// Shard for kernel-hash deployments), and stop with Close.
//
// The packet path (ingest through egress) is lock-free across shards; the
// mutation surface (AddClass, SetRate, RemoveClass, …) serializes behind
// one mutation lock and applies to every shard in turn — each shard's
// application is atomic with respect to its own pump, so reconfiguration
// stays hitless per shard exactly as on the monolithic engine.
type Sharded struct {
	shards []*dataplane.Dataplane
	rate   float64 // whole-link rate: Σ shard rates
	base   float64 // per-shard guaranteed pace slice = rate / N
	clk    wallclock.Clock
	tick   time.Duration

	// mu serializes control-plane fan-out (mutations and lifecycle) so two
	// concurrent mutations cannot interleave their per-shard applications
	// and skew the shards apart. Never taken on the packet path.
	mu      sync.Mutex
	started bool
	closed  bool

	stop      chan struct{} // closed by Close: splitter exit signal
	done      chan struct{} // closed by the splitter on exit
	closeOnce sync.Once

	// Splitter working state, owned by the splitter goroutine exclusively.
	carry    []float64 // banked credit per shard, bits
	busy     []bool
	lastPace []float64
}

// New builds an N-shard engine for a link of rate bits/sec using the named
// algorithm. Each shard is constructed with rate/N and the given engine
// options plus dataplane.WithShardScale(N), so every absolute value — the
// burst, '^ceil' clauses, and the rates and ceilings of later mutations —
// is given in whole-link units and divided by N inside the engine. n == 1 degenerates to a monolithic engine behind the
// same front (no splitter, no hashing overhead beyond one jump iteration).
func New(algorithm string, rate float64, n int, dpOpts []dataplane.Option, opts ...Option) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", n)
	}
	cfg := config{tick: DefaultSplitTick, clk: wallclock.Real{}}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Sharded{
		rate:     rate,
		base:     rate / float64(n),
		clk:      cfg.clk,
		tick:     cfg.tick,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		carry:    make([]float64, n),
		busy:     make([]bool, n),
		lastPace: make([]float64, n),
	}
	engineOpts := dpOpts
	if n > 1 {
		engineOpts = make([]dataplane.Option, 0, len(dpOpts)+1)
		engineOpts = append(engineOpts, dpOpts...)
		engineOpts = append(engineOpts, dataplane.WithShardScale(n))
	}
	for i := 0; i < n; i++ {
		d, err := dataplane.New(algorithm, s.base, engineOpts...)
		if err != nil {
			return nil, err // shards are identical: shard 0's verdict is everyone's
		}
		s.shards = append(s.shards, d)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i's engine for pinned use — the kernel-hash gateway
// ingests, checks health, and records sheds directly against the shard its
// listener socket feeds. Mutating a shard's configuration directly (rather
// than through the front) voids the all-shards-identical invariant the
// front's mutations and merged views rely on.
func (s *Sharded) Shard(i int) *dataplane.Dataplane { return s.shards[i] }

// ShardOf maps a flow key to its shard.
func (s *Sharded) ShardOf(key uint64) int { return jump(key, len(s.shards)) }

// IngestKeyCtx stages one datagram on the shard its flow key maps to,
// carrying an opaque per-datagram context (dataplane.IngestCtx semantics,
// including buffer ownership: the engine owns b only on a nil return).
// Shard-full and overload conditions surface as the engine's own error
// taxonomy — ErrQueueFull, ErrShedding, ErrClassDraining, … — wrapped with
// the shard index and matchable with errors.Is, so a burst hashed onto one
// full shard is a visible backpressure signal, never a silent tail-drop.
func (s *Sharded) IngestKeyCtx(key uint64, class int, b []byte, ctx any) error {
	i := jump(key, len(s.shards))
	if err := s.shards[i].IngestCtx(class, b, ctx); err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	return nil
}

// IngestKey is IngestKeyCtx without a context.
func (s *Sharded) IngestKey(key uint64, class int, b []byte) error {
	return s.IngestKeyCtx(key, class, b, nil)
}

// Ingest stages one datagram using the class id as the flow key — every
// datagram of a class lands on the same shard. Fine for tests and
// class-sticky traffic; real flow fan-out wants IngestKey with a per-flow
// key, or per-shard pinned ingest via Shard.
func (s *Sharded) Ingest(class int, b []byte) error {
	return s.IngestKeyCtx(uint64(class), class, b, nil)
}

// Start launches every shard's supervised pump. mk is called once per shard
// and must return that shard's Writer (shards never share a writer: each
// pump owns its egress exclusively, preserving the monolithic engine's
// single-writer contract). With more than one shard the rate splitter
// starts alongside the pumps.
func (s *Sharded) Start(mk func(shard int) dataplane.Writer) error {
	if mk == nil {
		return fmt.Errorf("shard: nil writer factory")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return dataplane.ErrClosed
	}
	if s.started {
		return fmt.Errorf("shard: already started")
	}
	for i, d := range s.shards {
		if err := d.Start(mk(i)); err != nil {
			return err
		}
	}
	s.started = true
	for i := range s.lastPace {
		s.lastPace[i] = s.base
	}
	if len(s.shards) > 1 {
		go s.splitter()
	} else {
		close(s.done)
	}
	return nil
}

// Close stops intake on every shard, drains their staged backlogs through
// their pacers concurrently, stops the splitter, and returns. Idempotent.
func (s *Sharded) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		started := s.started
		s.mu.Unlock()
		var wg sync.WaitGroup
		for _, d := range s.shards {
			wg.Add(1)
			go func(d *dataplane.Dataplane) {
				defer wg.Done()
				d.Close()
			}(d)
		}
		wg.Wait()
		close(s.stop)
		if started && len(s.shards) > 1 {
			<-s.done
		}
	})
	return nil
}

// --------------------------------------------------------------------------
// Mutation fan-out. Shards are configured identically, and every mutation
// below is deterministic in the engine's state, so shard 0's verdict is
// every shard's verdict: validation failures surface before any shard
// changed. A divergence past shard 0 — possible only if someone mutated a
// Shard(i) handle directly — is reported loudly rather than papered over.

func (s *Sharded) fanout(apply func(*dataplane.Dataplane) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := apply(s.shards[0]); err != nil {
		return err
	}
	for i, d := range s.shards[1:] {
		if err := apply(d); err != nil {
			return fmt.Errorf("shard: shards diverged (shard %d: %w); per-shard mutation bypassed the front?", i+1, err)
		}
	}
	return nil
}

// AddClass registers a class with a whole-link guaranteed rate on every
// shard (flat mode only).
func (s *Sharded) AddClass(id int, rate float64) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.AddClass(id, rate) })
}

// SetRate retunes class id's whole-link guaranteed rate across all shards.
func (s *Sharded) SetRate(id int, rate float64) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.SetRate(id, rate) })
}

// SetWeight retunes a topology node's relative share on every shard.
func (s *Sharded) SetWeight(name string, share float64) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.SetWeight(name, share) })
}

// AddLeafClass grafts a class leaf under the named node on every shard.
// ceil, and share under a flat root, are whole-link values.
func (s *Sharded) AddLeafClass(parent, name string, id int, share, ceil float64) error {
	return s.fanout(func(d *dataplane.Dataplane) error {
		return d.AddLeafClass(parent, name, id, share, ceil)
	})
}

// RemoveClass drain-removes the class on every shard; each shard finalizes
// independently once its staged remainder leaves.
func (s *Sharded) RemoveClass(id int) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.RemoveClass(id) })
}

// SetCeil caps class id at a whole-link ceiling (0 removes the cap).
func (s *Sharded) SetCeil(id int, ceil float64) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.SetCeil(id, ceil) })
}

// SetNodeCeil caps a named node at a whole-link ceiling.
func (s *Sharded) SetNodeCeil(name string, ceil float64) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.SetNodeCeil(name, ceil) })
}

// ProtectClass FEC-protects an existing class on every shard; each shard
// encodes its own blocks. Refused once the shards have started.
func (s *Sharded) ProtectClass(class int, spec fec.Spec, cfg dataplane.FECConfig) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.ProtectClass(class, spec, cfg) })
}

// SetPolicy swaps a scheduling discipline on every shard.
func (s *Sharded) SetPolicy(node string, f pifo.Factory) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.SetPolicy(node, f) })
}

// SetPolicyName is SetPolicy by registry name.
func (s *Sharded) SetPolicyName(node, policy string) error {
	return s.fanout(func(d *dataplane.Dataplane) error { return d.SetPolicyName(node, policy) })
}

// FECFeedback forwards receiver decode feedback: the recovered and
// unrecoverable counts land once (shard 0's metrics), while the loss
// estimate drives every shard's adaptive controller — each shard encodes
// its own blocks over the same lossy path.
func (s *Sharded) FECFeedback(class, recovered, unrecoverable int, loss float64) error {
	var first error
	for i, d := range s.shards {
		rec, unrec := 0, 0
		if i == 0 {
			rec, unrec = recovered, unrecoverable
		}
		if err := d.FECFeedback(class, rec, unrec, loss); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --------------------------------------------------------------------------
// Merged views. Each per-shard snapshot is internally consistent (frozen
// under that shard's lock); the merge is pure arithmetic over frozen
// values, so there are no torn reads by construction.

// Classes returns the registered class ids (identical on every shard).
func (s *Sharded) Classes() []int { return s.shards[0].Classes() }

// Backlog returns the staged datagram count across all shards.
func (s *Sharded) Backlog() int {
	total := 0
	for _, d := range s.shards {
		total += d.Backlog()
	}
	return total
}

// Queued sums one class's staged datagrams and bytes across shards.
func (s *Sharded) Queued(class int) (packets, bytes int) {
	for _, d := range s.shards {
		p, b := d.Queued(class)
		packets += p
		bytes += b
	}
	return packets, bytes
}

// Restarts sums pump panic-recoveries across shards.
func (s *Sharded) Restarts() int {
	total := 0
	for _, d := range s.shards {
		total += d.Restarts()
	}
	return total
}

// Snapshot merges every shard's scheduler metrics into one whole-link view
// (obs.Merge: counters and per-class rows sum, delay histograms add, WFI
// takes the worst shard).
func (s *Sharded) Snapshot() obs.Metrics {
	snaps := make([]obs.Metrics, len(s.shards))
	for i, d := range s.shards {
		snaps[i] = d.Snapshot()
	}
	return obs.Merge(snaps...)
}

// NodeSnapshots merges the per-node metrics of every shard's topology by
// node name; nil in flat mode.
func (s *Sharded) NodeSnapshots() map[string]obs.Metrics {
	var out map[string]map[int]obs.Metrics // name → shard → snapshot
	for i, d := range s.shards {
		ns := d.NodeSnapshots()
		if ns == nil {
			continue
		}
		if out == nil {
			out = make(map[string]map[int]obs.Metrics, len(ns))
		}
		for name, m := range ns {
			if out[name] == nil {
				out[name] = make(map[int]obs.Metrics, len(s.shards))
			}
			out[name][i] = m
		}
	}
	if out == nil {
		return nil
	}
	merged := make(map[string]obs.Metrics, len(out))
	for name, per := range out {
		snaps := make([]obs.Metrics, 0, len(per))
		for i := 0; i < len(s.shards); i++ {
			if m, ok := per[i]; ok {
				snaps = append(snaps, m)
			}
		}
		merged[name] = obs.Merge(snaps...)
	}
	return merged
}

// HealthState rolls per-shard health up to the gateway verdict: the worst
// shard wins (traffic hashed onto a wedged shard is stuck no matter how the
// others feel). Lock-free, cheap enough for per-datagram admission checks.
func (s *Sharded) HealthState() overload.State {
	worst := overload.Healthy
	for _, d := range s.shards {
		if st := d.HealthState(); st > worst {
			worst = st
		}
	}
	return worst
}

// Health merges the per-shard health reports: worst state, peak pressure
// (with that shard's raw signals), summed restart/stall/brownout counters,
// the stalest heartbeat, and the union of shedding classes.
func (s *Sharded) Health() dataplane.HealthStatus {
	var out dataplane.HealthStatus
	shedding := map[int]bool{}
	for i, d := range s.shards {
		h := d.Health()
		if i == 0 || h.State > out.State {
			out.State = h.State
		}
		out.Enabled = out.Enabled || h.Enabled
		if h.Pressure >= out.Pressure {
			out.Pressure = h.Pressure
			out.Signals = h.Signals
		}
		out.Restarts += h.Restarts
		if h.HeartbeatAge > out.HeartbeatAge {
			out.HeartbeatAge = h.HeartbeatAge
		}
		out.WatchdogStalls += h.WatchdogStalls
		out.BrownoutTransitions += h.BrownoutTransitions
		out.Brownout = out.Brownout || h.Brownout
		for _, id := range h.Shedding {
			shedding[id] = true
		}
	}
	if len(shedding) > 0 {
		out.Shedding = make([]int, 0, len(shedding))
		for id := range shedding {
			out.Shedding = append(out.Shedding, id)
		}
		sort.Ints(out.Shedding)
	}
	return out
}

// ShardStatuses returns every shard's own Status, in shard order — the
// per-shard drill-down behind the admin server's /api/shards.
func (s *Sharded) ShardStatuses() []dataplane.Status {
	out := make([]dataplane.Status, len(s.shards))
	for i, d := range s.shards {
		out[i] = d.Status()
	}
	return out
}

// Status merges the shards into one whole-link control-plane view: rates,
// ceilings, and node rates sum back to the configured whole-link units;
// counters merge via obs.Merge; health rolls up worst-first.
func (s *Sharded) Status() dataplane.Status {
	sts := s.ShardStatuses()
	n := float64(len(sts))
	out := sts[0]
	out.Shards = len(sts)
	out.Rate = 0
	out.Restarts = 0
	snaps := make([]obs.Metrics, len(sts))
	for _, st := range sts {
		out.Rate += st.Rate
		out.Restarts += st.Restarts
	}
	for i := range sts {
		snaps[i] = sts[i].Scheduler
	}
	out.Scheduler = obs.Merge(snaps...)
	if len(out.Nodes) > 0 {
		nodes := make([]hier.NodeInfo, len(out.Nodes))
		copy(nodes, out.Nodes)
		for i := range nodes {
			nodes[i].Rate *= n
		}
		out.Nodes = nodes
	}
	out.Classes = mergeClasses(sts)
	out.FEC = mergeFEC(sts)
	out.Health = s.Health()
	return out
}

// mergeClasses folds per-shard class rows by id: rates and ceilings sum
// back to whole-link units, staging gauges sum, and lifecycle flags OR.
func mergeClasses(sts []dataplane.Status) []dataplane.ClassStatus {
	byID := map[int]*dataplane.ClassStatus{}
	for _, st := range sts {
		for _, c := range st.Classes {
			dst := byID[c.ID]
			if dst == nil {
				row := c
				byID[c.ID] = &row
				continue
			}
			dst.Rate += c.Rate
			dst.Ceil += c.Ceil
			dst.Queued += c.Queued
			dst.QueuedBytes += c.QueuedBytes
			dst.Draining = dst.Draining || c.Draining
			dst.Shedding = dst.Shedding || c.Shedding
		}
	}
	out := make([]dataplane.ClassStatus, 0, len(byID))
	for _, c := range byID {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// mergeFEC folds per-shard FEC rows by protected class: geometry and
// adaptivity are identical across shards (shard 0 speaks for all), pending
// sources sum, and the loss estimate takes the worst shard.
func mergeFEC(sts []dataplane.Status) []dataplane.FECStatus {
	var out []dataplane.FECStatus
	index := map[int]int{}
	for _, st := range sts {
		for _, f := range st.FEC {
			at, ok := index[f.Class]
			if !ok {
				index[f.Class] = len(out)
				out = append(out, f)
				continue
			}
			out[at].Pending += f.Pending
			if f.LossEst > out[at].LossEst {
				out[at].LossEst = f.LossEst
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
