// Package ctl is the gateway's live control plane: a small HTTP admin
// server (stdlib net/http only) exposing introspection and hitless
// reconfiguration of a running dataplane.
//
// Read side:
//
//	GET /healthz      liveness probe: health state, pump restarts, and
//	                  heartbeat age; 200 while healthy/degraded, 503 once
//	                  the overload tracker reports overloaded or wedged
//	                  (and back to 200 with its exit hysteresis)
//	GET /api/health   the full health report as JSON (dataplane.HealthStatus):
//	                  state, smoothed pressure, per-signal detail, watchdog
//	                  stalls, brownout transitions, shedding classes
//	GET /status       human-readable status table (curl-friendly)
//	GET /api/status   full engine snapshot as JSON (dataplane.Status)
//	GET /api/nodes    per-node scheduler metrics over a topology (404 flat)
//	GET /api/flows    the gateway's client flow table (404 when not wired)
//	GET /api/shards   per-shard engine snapshots when the engine is a
//	                  sharded front (404 for a monolithic engine)
//	GET /api/policies registered scheduling policy names
//
// Mutation side (POST, query-string parameters, JSON replies):
//
//	POST /api/class/add     ?id=&rate=            (flat)
//	                        ?id=&parent=&share=[&name=][&ceil=] (topology)
//	POST /api/class/remove  ?id=
//	POST /api/class/rate    ?id=&rate=
//	POST /api/class/ceil    ?id=&ceil=            (0 removes the cap)
//	POST /api/node/weight   ?name=&share=
//	POST /api/node/ceil     ?name=&ceil=          (0 removes the cap)
//	POST /api/node/policy   ?policy=[&node=]
//
// Success replies {"ok":true}; validation and capability errors reply 400
// (409 for draining/removed classes is deliberately not distinguished — the
// body carries the engine's error text). Mutations apply atomically between
// pump iterations with no pump stop and no packet loss for surviving
// classes; see dataplane's admin surface for the exact contract.
//
// The server holds no state of its own — every request reads or mutates the
// live engine — so it can be started and stopped independently of the
// dataplane lifecycle.
package ctl

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/obs"
	"hpfq/internal/overload"
	"hpfq/internal/pifo"
)

// Engine is the slice of the dataplane the control plane drives;
// *dataplane.Dataplane satisfies it.
type Engine interface {
	Status() dataplane.Status
	Health() dataplane.HealthStatus
	NodeSnapshots() map[string]obs.Metrics
	AddClass(id int, rate float64) error
	AddLeafClass(parent, name string, id int, share, ceil float64) error
	RemoveClass(id int) error
	SetRate(id int, rate float64) error
	SetWeight(name string, share float64) error
	SetCeil(id int, ceil float64) error
	SetNodeCeil(name string, ceil float64) error
	SetPolicyName(node, policy string) error
}

// ShardViewer is the optional Engine extension a sharded front
// (internal/shard) exposes: per-shard Status drill-down. When the engine
// implements it, GET /api/shards serves the per-shard rows and /status
// reports the shard count; a monolithic engine leaves /api/shards at 404.
type ShardViewer interface {
	ShardStatuses() []dataplane.Status
}

// FlowInfo is one row of the gateway's client flow table, published on
// /api/flows when the gateway wires a FlowSource.
type FlowInfo struct {
	Client     string    // client address (the flow key)
	LocalAddr  string    // upstream-facing local address of the flow's socket
	LastActive time.Time // last datagram in either direction
	Shard      int       // owning shard (kernel-hash gateways); 0 when unsharded
}

// FlowSource supplies the current flow table; it must be safe for
// concurrent use.
type FlowSource func() []FlowInfo

// Option configures a Server.
type Option func(*Server)

// WithFlows publishes fs on /api/flows (and adds the flow count to
// /status). Without it the endpoint replies 404.
func WithFlows(fs FlowSource) Option { return func(s *Server) { s.flows = fs } }

// Server is the admin HTTP server over one Engine. Construct with New,
// mount Handler on any mux, or run standalone with Start/Close.
type Server struct {
	eng   Engine
	flows FlowSource
	mux   *http.ServeMux

	srv *http.Server
	ln  net.Listener
}

// New returns a Server for eng.
func New(eng Engine, opts ...Option) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/status", s.statusText)
	s.mux.HandleFunc("/api/health", s.healthJSON)
	s.mux.HandleFunc("/api/status", s.statusJSON)
	s.mux.HandleFunc("/api/nodes", s.nodes)
	s.mux.HandleFunc("/api/flows", s.flowsJSON)
	s.mux.HandleFunc("/api/shards", s.shardsJSON)
	s.mux.HandleFunc("/api/policies", s.policies)
	s.mux.HandleFunc("/api/class/add", s.mutate(s.classAdd))
	s.mux.HandleFunc("/api/class/remove", s.mutate(s.classRemove))
	s.mux.HandleFunc("/api/class/rate", s.mutate(s.classRate))
	s.mux.HandleFunc("/api/class/ceil", s.mutate(s.classCeil))
	s.mux.HandleFunc("/api/node/weight", s.mutate(s.nodeWeight))
	s.mux.HandleFunc("/api/node/ceil", s.mutate(s.nodeCeil))
	s.mux.HandleFunc("/api/node/policy", s.mutate(s.nodePolicy))
	return s
}

// Handler returns the admin mux, mountable under any http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in a background
// goroutine until Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln)
	return ln.Addr(), nil
}

// Close stops a Start-ed server, closing its listener and any open
// connections. A Server that never started is a no-op.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// --------------------------------------------------------------------------
// Read side.

// healthz is the liveness probe: 200 while the engine is healthy or
// degraded, 503 once the overload tracker reports overloaded or wedged
// (flipping back with the tracker's exit hysteresis). The body carries the
// state, pump restart count, and heartbeat age, so a bare curl tells an
// operator whether "down" means wedged pump or pressure shedding.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	h := s.eng.Health()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	code := http.StatusOK
	if h.State >= overload.Overloaded {
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	if code == http.StatusOK && h.State == overload.Healthy {
		fmt.Fprintln(w, "ok")
	} else {
		fmt.Fprintln(w, h.State.String())
	}
	fmt.Fprintf(w, "restarts=%d heartbeat_age=%s\n", h.Restarts, h.HeartbeatAge)
	if h.Enabled {
		fmt.Fprintf(w, "pressure=%.3f\n", h.Pressure)
	}
}

// healthJSON serves the full health report (GET /api/health).
func (s *Server) healthJSON(w http.ResponseWriter, r *http.Request) {
	h := s.eng.Health()
	code := http.StatusOK
	if h.State >= overload.Overloaded {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) statusJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Status())
}

func (s *Server) nodes(w http.ResponseWriter, r *http.Request) {
	ns := s.eng.NodeSnapshots()
	if ns == nil {
		http.Error(w, "no topology: flat scheduler has no nodes", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, ns)
}

func (s *Server) flowsJSON(w http.ResponseWriter, r *http.Request) {
	if s.flows == nil {
		http.Error(w, "no flow table wired", http.StatusNotFound)
		return
	}
	fl := s.flows()
	sort.Slice(fl, func(i, j int) bool { return fl[i].Client < fl[j].Client })
	writeJSON(w, http.StatusOK, fl)
}

// shardsJSON serves per-shard engine snapshots when the engine is a
// sharded front (GET /api/shards); a monolithic engine replies 404.
func (s *Server) shardsJSON(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.eng.(ShardViewer)
	if !ok {
		http.Error(w, "engine is not sharded", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, sv.ShardStatuses())
}

func (s *Server) policies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, pifo.Names())
}

// statusText renders the status as an aligned, human-readable table — the
// "ssh in and curl it" view of the same data /api/status serves as JSON.
func (s *Server) statusText(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Status()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s  %s  rate %s", st.Algorithm, st.Mode, rate(st.Rate))
	if st.Shards > 1 {
		fmt.Fprintf(w, "  shards %d", st.Shards)
	}
	if st.Borrowing {
		fmt.Fprintf(w, "  [ceilings]")
	}
	switch {
	case st.Closed:
		fmt.Fprintf(w, "  CLOSED")
	case !st.Started:
		fmt.Fprintf(w, "  not started")
	}
	fmt.Fprintln(w)
	m := st.Scheduler
	fmt.Fprintf(w, "sched: enq %d  deq %d  drop %d  retry %d  queued %d  batches %d\n",
		m.Enqueued.Packets, m.Dequeued.Packets, m.Dropped.Packets,
		m.Retried.Packets, m.QueueLen, m.BatchWrites)
	if len(m.DropReasons) > 0 {
		reasons := make([]string, 0, len(m.DropReasons))
		for reason := range m.DropReasons {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "drops:")
		for _, reason := range reasons {
			fmt.Fprintf(w, " %s=%d", reason, m.DropReasons[reason].Packets)
		}
		fmt.Fprintln(w)
	}
	if st.Restarts > 0 {
		fmt.Fprintf(w, "pump restarts: %d\n", st.Restarts)
	}
	if h := st.Health; h.Enabled {
		fmt.Fprintf(w, "health: %s  pressure %.3f  heartbeat age %s", h.State, h.Pressure, h.HeartbeatAge)
		if h.Brownout {
			fmt.Fprintf(w, "  [brownout]")
		}
		fmt.Fprintln(w)
		if h.WatchdogStalls > 0 || h.BrownoutTransitions > 0 || m.Shed.Packets > 0 {
			fmt.Fprintf(w, "overload: shed %d  brownout transitions %d  watchdog stalls %d\n",
				m.Shed.Packets, h.BrownoutTransitions, h.WatchdogStalls)
		}
	}
	if st.Pool != nil {
		fmt.Fprintf(w, "pool: gets %d  puts %d  allocs %d\n", st.Pool.Gets, st.Pool.Puts, st.Pool.Allocs)
	}
	if s.flows != nil {
		fmt.Fprintf(w, "flows: %d\n", len(s.flows()))
	}
	if len(st.FEC) > 0 {
		for _, f := range st.FEC {
			fmt.Fprintf(w, "fec: class %d repair %d  %s  pending %d", f.Class, f.RepairClass, f.Spec, f.Pending)
			if f.Adaptive {
				fmt.Fprintf(w, "  adaptive (loss est %.3f)", f.LossEst)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "fec counters: encoded %d  repairs %d  recovered %d  unrecoverable %d\n",
			m.FECEncoded, m.FECRepairSent, m.FECRecovered, m.FECUnrecoverable)
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CLASS\tNAME\tRATE\tCEIL\tQUEUED\tBYTES\tSTATE")
	for _, c := range st.Classes {
		state := "live"
		switch {
		case c.Draining:
			state = "draining"
		case c.Shedding:
			state = "shedding"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%s\n",
			c.ID, orDash(c.Name), rate(c.Rate), ceilStr(c.Ceil),
			c.Queued, c.QueuedBytes, state)
	}
	tw.Flush()

	if len(st.Nodes) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NODE\tPARENT\tSHARE\tRATE\tCEIL\tPOLICY\tSESSION")
		for _, n := range st.Nodes {
			session := "-"
			if n.Session >= 0 {
				session = strconv.Itoa(n.Session)
			}
			fmt.Fprintf(tw, "%s\t%s\t%g\t%s\t%s\t%s\t%s\n",
				orDash(n.Name), orDash(n.Parent), n.Share, rate(n.Rate),
				ceilStr(n.Ceil), orDash(n.Policy), session)
		}
		tw.Flush()
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// rate renders bits/sec with an SI suffix, the way operators read link
// speeds.
func rate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.4gGbit/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.4gMbit/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.4gkbit/s", bps/1e3)
	default:
		return fmt.Sprintf("%gbit/s", bps)
	}
}

func ceilStr(c float64) string {
	if c <= 0 {
		return "-"
	}
	return rate(c)
}

// --------------------------------------------------------------------------
// Mutation side.

// mutate wraps a mutation handler with the POST check and the JSON reply
// convention: nil error → {"ok":true}, non-nil → 400 with the error text.
func (s *Server) mutate(h func(r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "mutations are POST", http.StatusMethodNotAllowed)
			return
		}
		if err := h(r); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"ok": false, "error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	}
}

// qInt / qFloat parse required query parameters.
func qInt(r *http.Request, key string) (int, error) {
	v := r.FormValue(key)
	if v == "" {
		return 0, fmt.Errorf("missing parameter %q", key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", key, err)
	}
	return n, nil
}

func qFloat(r *http.Request, key string) (float64, error) {
	v := r.FormValue(key)
	if v == "" {
		return 0, fmt.Errorf("missing parameter %q", key)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", key, err)
	}
	return f, nil
}

// qFloatOr parses an optional query parameter with a default.
func qFloatOr(r *http.Request, key string, def float64) (float64, error) {
	if r.FormValue(key) == "" {
		return def, nil
	}
	return qFloat(r, key)
}

func (s *Server) classAdd(r *http.Request) error {
	id, err := qInt(r, "id")
	if err != nil {
		return err
	}
	if parent := r.FormValue("parent"); parent != "" {
		share, err := qFloat(r, "share")
		if err != nil {
			return err
		}
		ceil, err := qFloatOr(r, "ceil", 0)
		if err != nil {
			return err
		}
		return s.eng.AddLeafClass(parent, r.FormValue("name"), id, share, ceil)
	}
	rate, err := qFloat(r, "rate")
	if err != nil {
		return err
	}
	return s.eng.AddClass(id, rate)
}

func (s *Server) classRemove(r *http.Request) error {
	id, err := qInt(r, "id")
	if err != nil {
		return err
	}
	return s.eng.RemoveClass(id)
}

func (s *Server) classRate(r *http.Request) error {
	id, err := qInt(r, "id")
	if err != nil {
		return err
	}
	rate, err := qFloat(r, "rate")
	if err != nil {
		return err
	}
	return s.eng.SetRate(id, rate)
}

func (s *Server) classCeil(r *http.Request) error {
	id, err := qInt(r, "id")
	if err != nil {
		return err
	}
	ceil, err := qFloat(r, "ceil")
	if err != nil {
		return err
	}
	return s.eng.SetCeil(id, ceil)
}

func (s *Server) nodeWeight(r *http.Request) error {
	name := r.FormValue("name")
	if name == "" {
		return fmt.Errorf("missing parameter %q", "name")
	}
	share, err := qFloat(r, "share")
	if err != nil {
		return err
	}
	return s.eng.SetWeight(name, share)
}

func (s *Server) nodeCeil(r *http.Request) error {
	name := r.FormValue("name")
	if name == "" {
		return fmt.Errorf("missing parameter %q", "name")
	}
	ceil, err := qFloat(r, "ceil")
	if err != nil {
		return err
	}
	return s.eng.SetNodeCeil(name, ceil)
}

func (s *Server) nodePolicy(r *http.Request) error {
	policy := r.FormValue("policy")
	if policy == "" {
		return fmt.Errorf("missing parameter %q", "policy")
	}
	return s.eng.SetPolicyName(r.FormValue("node"), policy)
}
