package pifo

import (
	"math"
	"sort"

	"hpfq/internal/fluid"
	"hpfq/internal/packet"
)

// Factory describes a policy selectable by name: constructors for the flat
// and node forms plus the two host-behavior switches. A nil constructor
// means the policy has no scheduler of that form.
type Factory struct {
	Name string
	// Flat builds the policy for a standalone server of the given link
	// rate (bits/sec); Node builds it for a hierarchy node of guaranteed
	// rate r_n.
	Flat func(rate float64) Policy
	Node func(rate float64) Policy
	// Arrival selects the flat host's stamping mode: true stamps every
	// packet when it arrives (the eq. 6 disciplines — WFQ, WF²Q, SCFQ,
	// SFQ — and the deadline policies), false stamps a packet when it
	// reaches the head of its flow queue (WF²Q+'s eq. 28 and DRR). Node
	// hosts always stamp at Push, which is head-of-queue by construction.
	Arrival bool
	// Tagless suppresses virtual-time trace fields: the policy's ranks are
	// not virtual start/finish tags (DRR, SP, SRPT).
	Tagless bool
	// Monotone declares that every rank the policy issues is strictly below
	// the smallest or at/above the largest rank currently queued (DRR's
	// front/tail round counters, FIFO's arrival counter), letting the hosts
	// run the PIFO as an O(1) deque instead of heaps (see queue). A flat
	// host stamping on arrival inserts a rank only when its packet reaches
	// the head of its flow queue, after later ranks, so it keeps the heaps.
	Monotone bool
}

// factories is the policy registry. Names match the scheduler registry in
// internal/sched, which hosts these policies for the classic disciplines.
var factories = map[string]Factory{}

func register(f Factory) Factory {
	factories[f.Name] = f
	return f
}

// Lookup returns the named policy factory.
func Lookup(name string) (Factory, bool) {
	f, ok := factories[name]
	return f, ok
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// flowTags is the per-flow rate and last finish tag shared by the
// self-clocked policies.
type flowTags struct {
	rate float64
	f    float64
}

// ---------------------------------------------------------------------------
// WF²Q+ (paper §3.4): rank = virtual finish, eligibility = virtual start,
// low-complexity system virtual time V += L/r with the eq. 27 min-term floor.
// This is the flat host's form; a Node running WF²Q+ does the same
// arithmetic inline on its slots (node.go), and live mutation happens there.

type wf2qPlus struct {
	rate  float64
	v     float64
	flows []flowTags
}

func newWF2QPlus(rate float64) Policy { return &wf2qPlus{rate: rate} }

func (p *wf2qPlus) AddFlow(id int, rate float64) {
	for len(p.flows) <= id {
		p.flows = append(p.flows, flowTags{})
	}
	p.flows[id].rate = rate
}

func (p *wf2qPlus) Arrive(_ float64, id int, length float64, cont bool) Stamp {
	fl := &p.flows[id]
	var s float64
	if cont {
		s = fl.f
	} else {
		s = math.Max(fl.f, p.v)
	}
	fl.f = s + length/fl.rate
	return Stamp{S: s, F: fl.f, Rank: fl.f, Elig: s, Gated: true}
}

func (p *wf2qPlus) FloorV(minParkedStart float64, haveEligible bool) float64 {
	if !haveEligible && minParkedStart > p.v {
		p.v = minParkedStart
	}
	return p.v
}

func (p *wf2qPlus) Commit(_ int, length float64, _ Stamp, _ int) float64 {
	p.v += length / p.rate
	return p.v
}
func (p *wf2qPlus) V() float64 { return p.v }

// WF2QPlus returns the WF²Q+ policy (the paper's contribution): SEFF over
// the eq. 27 virtual time, O(log N) per operation.
func WF2QPlus() Factory { return factories["WF2Q+"] }

// ---------------------------------------------------------------------------
// WFQ and WF²Q: stamps from the exact GPS fluid clock (eq. 4–7). The flat
// form advances the clock on real time (Ticker); the node form advances it
// in reference time T_n += L/r_n per Commit. WF²Q adds the SEFF gate.

type gps struct {
	clock *fluid.Clock
	seff  bool    // gate on virtual start (WF²Q); false = plain SFF (WFQ)
	node  bool    // reference-time driven (hierarchy node form)
	rate  float64 // node guaranteed rate r_n
	t     float64 // node reference time T_n
}

func (p *gps) AddFlow(id int, rate float64) { p.clock.AddSession(id, rate) }

func (p *gps) Tick(now float64) { p.clock.Advance(now) }

func (p *gps) Arrive(now float64, id int, length float64, cont bool) Stamp {
	if p.node {
		p.clock.Advance(p.t)
	} else {
		p.clock.Advance(now)
	}
	var s, f float64
	if cont {
		s, f = p.clock.StampChained(id, length)
	} else {
		s, f = p.clock.Stamp(id, length)
	}
	return Stamp{S: s, F: f, Rank: f, Elig: s, Gated: p.seff}
}

func (p *gps) Commit(_ int, length float64, _ Stamp, _ int) float64 {
	if p.node {
		p.t += length / p.rate
		p.clock.Advance(p.t)
	}
	return p.clock.V()
}

func (p *gps) V() float64 { return p.clock.V() }

// WFQ returns the WFQ (PGPS) policy: smallest virtual finish first over the
// exact GPS virtual time.
func WFQ() Factory { return factories["WFQ"] }

// WF2Q returns the WF²Q policy: SEFF over the exact GPS virtual time.
func WF2Q() Factory { return factories["WF2Q"] }

// ---------------------------------------------------------------------------
// SCFQ (Golestani): rank = self-clocked finish tag, V = finish tag of the
// packet in service.

type scfq struct {
	v     float64
	flows []flowTags
}

func newSCFQ(float64) Policy { return &scfq{} }

func (p *scfq) AddFlow(id int, rate float64) {
	for len(p.flows) <= id {
		p.flows = append(p.flows, flowTags{})
	}
	p.flows[id].rate = rate
}

func (p *scfq) Arrive(_ float64, id int, length float64, cont bool) Stamp {
	fl := &p.flows[id]
	if cont {
		fl.f += length / fl.rate
	} else {
		fl.f = math.Max(fl.f, p.v) + length/fl.rate
	}
	// SCFQ assigns no start tag; the traced start is derived exactly as the
	// seed implementations derive it.
	return Stamp{S: fl.f - length/fl.rate, F: fl.f, Rank: fl.f}
}

func (p *scfq) Commit(_ int, _ float64, st Stamp, _ int) float64 {
	p.v = st.F
	return p.v
}
func (p *scfq) V() float64 { return p.v }

func (p *scfq) SetFlowRate(id int, rate float64) { p.flows[id].rate = rate }
func (p *scfq) RemoveFlow(id int)                { p.flows[id] = flowTags{} }

// SCFQ returns the self-clocked fair queueing policy.
func SCFQ() Factory { return factories["SCFQ"] }

// ---------------------------------------------------------------------------
// SFQ (Goyal): rank = start tag, V = start tag of the packet in service,
// jumping to the maximum finish tag when the system empties.

type sfq struct {
	v     float64
	maxF  float64
	flows []flowTags
}

func newSFQ(float64) Policy { return &sfq{} }

func (p *sfq) AddFlow(id int, rate float64) {
	for len(p.flows) <= id {
		p.flows = append(p.flows, flowTags{})
	}
	p.flows[id].rate = rate
}

func (p *sfq) Arrive(_ float64, id int, length float64, cont bool) Stamp {
	fl := &p.flows[id]
	var s float64
	if cont {
		s = fl.f
	} else {
		s = math.Max(fl.f, p.v)
	}
	fl.f = s + length/fl.rate
	if fl.f > p.maxF {
		p.maxF = fl.f
	}
	return Stamp{S: s, F: fl.f, Rank: s}
}

func (p *sfq) Commit(_ int, _ float64, st Stamp, remaining int) float64 {
	p.v = st.S
	if remaining == 0 {
		p.v = p.maxF
	}
	return p.v
}

func (p *sfq) V() float64 { return p.v }

func (p *sfq) SetFlowRate(id int, rate float64) { p.flows[id].rate = rate }
func (p *sfq) RemoveFlow(id int)                { p.flows[id] = flowTags{} }

// SFQ returns the start-time fair queueing policy.
func SFQ() Factory { return factories["SFQ"] }

// ---------------------------------------------------------------------------
// DRR (Shreedhar & Varghese): the rank encodes the round-robin ring — new
// backlogs take an increasing tail counter, continuations a decreasing
// front counter — and the deficit check runs as a Deferrer at pop time.

// drrQuantumBase is the base quantum in bits for the smallest-rate flow,
// matching the seed schedulers (one maximum packet).
const drrQuantumBase = packet.Bits8KB

type drr struct {
	rates    []float64
	quantum  []float64
	deficit  []float64
	minRate  float64
	credited int     // front flow already credited this round visit
	front    float64 // decreasing rank counter: continuations rejoin first
	tail     float64 // increasing rank counter: new backlogs join last
	work     float64 // cumulative bits served, the policy's only clock
	node     bool    // node form: the credit mark survives a serve (see Commit)
}

func newDRR(float64) Policy     { return &drr{minRate: math.Inf(1), credited: -1} }
func newDRRNode(float64) Policy { return &drr{minRate: math.Inf(1), credited: -1, node: true} }

func (p *drr) AddFlow(id int, rate float64) {
	for len(p.rates) <= id {
		p.rates = append(p.rates, 0)
		p.quantum = append(p.quantum, 0)
		p.deficit = append(p.deficit, 0)
	}
	p.rates[id] = rate
	if rate < p.minRate {
		p.minRate = rate
	}
	for i, r := range p.rates {
		if r > 0 {
			p.quantum[i] = drrQuantumBase * r / p.minRate
		}
	}
}

func (p *drr) Arrive(_ float64, id int, _ float64, cont bool) Stamp {
	if cont {
		// Rejoin at the front of the round, keeping the deficit. In the flat
		// form the continuation follows its own serve immediately, so it also
		// reclaims the credit mark; the node form's mark survived the serve
		// (and may meanwhile belong to another child), so it stays put.
		p.front--
		if !p.node {
			p.credited = id
		}
		return Stamp{Rank: p.front}
	}
	p.deficit[id] = 0
	p.tail++
	return Stamp{Rank: p.tail}
}

func (p *drr) Defer(id int, length float64) (float64, bool) {
	if p.credited != id {
		p.deficit[id] += p.quantum[id]
		p.credited = id
	}
	if p.deficit[id] < length {
		// Quantum exhausted: carry the deficit, move to the round tail.
		p.credited = -1
		p.tail++
		return p.tail, true
	}
	p.deficit[id] -= length
	return 0, false
}

func (p *drr) Commit(id int, length float64, _ Stamp, _ int) float64 {
	p.work += length
	if p.node {
		// The node form's credit mark survives the serve, so a continuation
		// re-push at the front does not earn a second quantum in the same
		// round visit (sched.DRRNode semantics).
		p.credited = id
		return p.work
	}
	// The flat form resets the mark when the session's queue empties; when it
	// does not, the host's immediate continuation re-Arrive restores it, so
	// clearing here reproduces sched.DRR exactly.
	p.credited = -1
	return p.work
}

func (p *drr) V() float64 { return p.work }

// requantize recomputes the smallest live rate and every quantum after a
// rate change or removal — the same proportionality AddFlow maintains.
func (p *drr) requantize() {
	p.minRate = math.Inf(1)
	for _, r := range p.rates {
		if r > 0 && r < p.minRate {
			p.minRate = r
		}
	}
	for i, r := range p.rates {
		if r > 0 {
			p.quantum[i] = drrQuantumBase * r / p.minRate
		} else {
			p.quantum[i] = 0
		}
	}
}

func (p *drr) SetFlowRate(id int, rate float64) {
	p.rates[id] = rate
	p.requantize()
}

func (p *drr) RemoveFlow(id int) {
	p.rates[id] = 0
	p.deficit[id] = 0
	if p.credited == id {
		p.credited = -1
	}
	p.requantize()
}

// DRR returns the deficit round robin policy.
func DRR() Factory { return factories["DRR"] }

// ---------------------------------------------------------------------------
// Strict priority: rank = per-flow priority, constant per packet.

type sp struct {
	prio  func(id int, rate float64) float64
	ranks []float64
	work  float64
}

func (p *sp) AddFlow(id int, rate float64) {
	for len(p.ranks) <= id {
		p.ranks = append(p.ranks, 0)
	}
	p.ranks[id] = p.prio(id, rate)
}

func (p *sp) Arrive(_ float64, id int, _ float64, _ bool) Stamp {
	return Stamp{Rank: p.ranks[id]}
}

func (p *sp) Commit(_ int, length float64, _ Stamp, _ int) float64 {
	p.work += length
	return p.work
}
func (p *sp) V() float64 { return p.work }

func (p *sp) SetFlowRate(id int, rate float64) { p.ranks[id] = p.prio(id, rate) }
func (p *sp) RemoveFlow(id int)                { p.ranks[id] = 0 }

// StrictPriority returns the strict priority policy: lower flow (or child)
// id is served first, FIFO within a priority level. Starvation of low
// priorities under overload is the intended behavior.
func StrictPriority() Factory { return factories["SP"] }

// StrictPriorityWith returns a strict priority policy with a custom
// priority function (smaller = served first).
func StrictPriorityWith(prio func(id int, rate float64) float64) Factory {
	f := factories["SP"]
	f.Flat = func(float64) Policy { return &sp{prio: prio} }
	f.Node = f.Flat
	return f
}

// ---------------------------------------------------------------------------
// EDF, SRPT, LSTF: deadline and size based ranks over a normalized-work
// clock V += L/r (the server's reference time).

// deadline clocks: V advances by normalized work so node-hosted deadlines
// live in the node's reference time T_n.
type workClock struct {
	rate float64
	v    float64
}

func (c *workClock) Commit(_ int, length float64, _ Stamp, _ int) float64 {
	c.v += length / c.rate
	return c.v
}
func (c *workClock) V() float64              { return c.v }
func (c *workClock) SetServerRate(r float64) { c.rate = r }

type edf struct {
	workClock
	rel   func(id int, rate, length float64) float64
	rates []float64
}

func (p *edf) AddFlow(id int, rate float64) {
	for len(p.rates) <= id {
		p.rates = append(p.rates, 0)
	}
	p.rates[id] = rate
}

func (p *edf) Arrive(now float64, id int, length float64, _ bool) Stamp {
	d := now + p.rel(id, p.rates[id], length)
	return Stamp{S: now, F: d, Rank: d}
}

func (p *edf) SetFlowRate(id int, rate float64) { p.rates[id] = rate }
func (p *edf) RemoveFlow(id int)                { p.rates[id] = 0 }

// defaultRelDeadline is one transmission time at the flow's guaranteed
// rate — the deadline a flow meeting exactly its reservation would need.
func defaultRelDeadline(_ int, rate, length float64) float64 { return length / rate }

// EDF returns the earliest-deadline-first policy: rank = arrival time plus
// the flow's relative deadline (default: L/r_i, one transmission time at
// the guaranteed rate). In a hierarchy node, deadlines are measured in the
// node's reference time.
func EDF() Factory { return factories["EDF"] }

// EDFWith returns an EDF policy with a custom relative-deadline function.
func EDFWith(rel func(id int, rate, length float64) float64) Factory {
	f := factories["EDF"]
	f.Flat = func(rate float64) Policy { return &edf{workClock: workClock{rate: rate}, rel: rel} }
	f.Node = f.Flat
	return f
}

type srpt struct {
	workClock
}

func (p *srpt) AddFlow(int, float64) {}

func (p *srpt) Arrive(_ float64, _ int, length float64, _ bool) Stamp {
	return Stamp{Rank: length / p.rate}
}

func (p *srpt) SetFlowRate(int, float64) {}
func (p *srpt) RemoveFlow(int)           {}

// SRPT returns the shortest-remaining-processing-time policy: the packet
// with the smallest transmission time on the link is served first,
// regardless of flow. Tagless; minimizes mean sojourn at the cost of
// fairness.
func SRPT() Factory { return factories["SRPT"] }

type lstf struct {
	workClock
	slack func(id int, rate, length float64) float64
	rates []float64
}

func (p *lstf) AddFlow(id int, rate float64) {
	for len(p.rates) <= id {
		p.rates = append(p.rates, 0)
	}
	p.rates[id] = rate
}

func (p *lstf) Arrive(now float64, id int, length float64, _ bool) Stamp {
	t := now + p.slack(id, p.rates[id], length)
	return Stamp{S: now, F: t, Rank: t}
}

func (p *lstf) SetFlowRate(id int, rate float64) { p.rates[id] = rate }
func (p *lstf) RemoveFlow(id int)                { p.rates[id] = 0 }

// LSTF returns the least-slack-time-first policy: rank = arrival time plus
// the packet's slack budget (default: L/r_i). With per-packet-constant
// slack this is the static LSTF of the PIFO literature — the rank freezes
// the slack at arrival.
func LSTF() Factory { return factories["LSTF"] }

// LSTFWith returns an LSTF policy with a custom slack function.
func LSTFWith(slack func(id int, rate, length float64) float64) Factory {
	f := factories["LSTF"]
	f.Flat = func(rate float64) Policy { return &lstf{workClock: workClock{rate: rate}, slack: slack} }
	f.Node = f.Flat
	return f
}

// ---------------------------------------------------------------------------
// FIFO: rank = arrival order, the PIFO literature's FIFO rank function
// (arrival time) kept as a sequence number so equal timestamps keep their
// order. Flat, every packet is stamped on arrival (Arrival), so the smallest
// rank among the flows' heads is the oldest packet queued: global arrival
// order, the seed FIFO server's. In a node a child is stamped at Push, so
// ranks only grow and the node runs the PIFO as a deque (Monotone):
// children are served in push order.

type fifo struct {
	workClock
	seq float64
}

func (p *fifo) AddFlow(int, float64) {}

func (p *fifo) Arrive(float64, int, float64, bool) Stamp {
	p.seq++
	return Stamp{Rank: p.seq}
}

func (p *fifo) SetFlowRate(int, float64) {}
func (p *fifo) RemoveFlow(int)           {}

func newFIFO(rate float64) Policy { return &fifo{workClock: workClock{rate: rate}} }

func init() {
	register(Factory{
		Name:     "FIFO",
		Flat:     newFIFO,
		Node:     newFIFO,
		Arrival:  true,
		Tagless:  true,
		Monotone: true,
	})
	register(Factory{
		Name: "WF2Q+",
		Flat: newWF2QPlus,
		Node: newWF2QPlus,
	})
	register(Factory{
		Name:    "WFQ",
		Flat:    func(rate float64) Policy { return &gps{clock: fluid.NewClock(rate)} },
		Node:    func(rate float64) Policy { return &gps{clock: fluid.NewClock(rate), node: true, rate: rate} },
		Arrival: true,
	})
	register(Factory{
		Name: "WF2Q",
		Flat: func(rate float64) Policy { return &gps{clock: fluid.NewClock(rate), seff: true} },
		Node: func(rate float64) Policy {
			return &gps{clock: fluid.NewClock(rate), seff: true, node: true, rate: rate}
		},
		Arrival: true,
	})
	register(Factory{
		Name:    "SCFQ",
		Flat:    newSCFQ,
		Node:    newSCFQ,
		Arrival: true,
	})
	register(Factory{
		Name:    "SFQ",
		Flat:    newSFQ,
		Node:    newSFQ,
		Arrival: true,
	})
	register(Factory{
		Name:     "DRR",
		Flat:     newDRR,
		Node:     newDRRNode,
		Tagless:  true,
		Monotone: true,
	})
	register(Factory{
		Name:    "SP",
		Flat:    func(float64) Policy { return &sp{prio: func(id int, _ float64) float64 { return float64(id) }} },
		Node:    func(float64) Policy { return &sp{prio: func(id int, _ float64) float64 { return float64(id) }} },
		Arrival: true,
		Tagless: true,
	})
	register(Factory{
		Name:    "EDF",
		Flat:    func(rate float64) Policy { return &edf{workClock: workClock{rate: rate}, rel: defaultRelDeadline} },
		Node:    func(rate float64) Policy { return &edf{workClock: workClock{rate: rate}, rel: defaultRelDeadline} },
		Arrival: true,
	})
	register(Factory{
		Name:    "SRPT",
		Flat:    func(rate float64) Policy { return &srpt{workClock{rate: rate}} },
		Node:    func(rate float64) Policy { return &srpt{workClock{rate: rate}} },
		Arrival: true,
		Tagless: true,
	})
	register(Factory{
		Name:    "LSTF",
		Flat:    func(rate float64) Policy { return &lstf{workClock: workClock{rate: rate}, slack: defaultRelDeadline} },
		Node:    func(rate float64) Policy { return &lstf{workClock: workClock{rate: rate}, slack: defaultRelDeadline} },
		Arrival: true,
	})
}
