package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below are
// the harness's side of BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the gateway or engine sees. Every workload
// reports all of them (README.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"kpps", "kpps"},
	{"cpu_us_per_pkt", "us"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"share_min_pct", "%"},
}

// perLayer is what the traced run reports. A metric whose layer a workload
// does not run is reported as 0 (README.md lists which are live where).
var perLayer = []metricDef{
	{"hpfqgw.ctxsw_per_pkt", "count"},
	{"hpfqgw.batch_avg", "count"},
	{"hpfqgw.sojourn_mean_us", "us"},
	{"hpfqgw.rt_wfi_ms", "ms"},
	{"hpfqgw.drop_tail_pct", "%"},
	{"hpfqgw.rcvbuf_errors", "count"},
	{"hpfqgw.ready_ms", "ms"},
	{"ctl.status_ms", "ms"},
	{"net.send_ns", "ns"},
	{"gen.late_p99_us", "us"},
	{"gen.cpu_us_per_pkt", "us"},
	{"shard.ingest_ns", "ns"},
	{"shard.ingest_p99_ns", "ns"},
	{"shard.new_ms", "ms"},
	{"dataplane.pump_gap_us", "us"},
	{"dataplane.batch_avg", "count"},
	{"dataplane.sojourn_p50_us", "us"},
	{"dataplane.sojourn_p99_us", "us"},
	{"dataplane.allocs_per_pkt", "count"},
	{"dataplane.refuse_ns", "ns"},
	{"dataplane.refuse_allocs", "count"},
	{"hier.enqueue_ns", "ns"},
	{"hier.dequeue_ns", "ns"},
	{"pifo.enqueue_ns", "ns"},
	{"pifo.dequeue_ns", "ns"},
	{"fec.encode_ns", "ns"},
	{"topo.parse_ms", "ms"},
	{"obs.snapshot_us", "us"},
	{"trace.overhead_pct", "%"},
}

// probeLayer are the per-layer metrics every traced run measures with the
// in-process layer probes (layers.go).
var probeLayer = []string{
	"pifo.enqueue_ns", "pifo.dequeue_ns", "hier.enqueue_ns", "hier.dequeue_ns",
	"fec.encode_ns", "dataplane.refuse_ns", "dataplane.refuse_allocs",
	"obs.snapshot_us", "topo.parse_ms", "shard.new_ms",
}

// liveLayer lists, per workload, the per-layer metrics its own traffic
// measures; with probeLayer they are the workload's live metrics. The
// rest belong to layers the workload does not run and read 0.
var liveLayer = map[string][]string{
	"gw_echo": {"hpfqgw.ctxsw_per_pkt", "hpfqgw.batch_avg", "hpfqgw.sojourn_mean_us",
		"hpfqgw.drop_tail_pct", "hpfqgw.rcvbuf_errors", "hpfqgw.ready_ms", "ctl.status_ms",
		"net.send_ns", "gen.cpu_us_per_pkt", "trace.overhead_pct"},
	"gw_tree_fec": {"hpfqgw.ctxsw_per_pkt", "hpfqgw.batch_avg", "hpfqgw.sojourn_mean_us",
		"hpfqgw.rt_wfi_ms", "hpfqgw.drop_tail_pct", "hpfqgw.rcvbuf_errors", "hpfqgw.ready_ms",
		"ctl.status_ms", "net.send_ns", "gen.late_p99_us", "gen.cpu_us_per_pkt",
		"trace.overhead_pct"},
	"engine_deep": {"shard.ingest_ns", "shard.ingest_p99_ns", "dataplane.pump_gap_us",
		"dataplane.batch_avg", "dataplane.sojourn_p50_us", "dataplane.sojourn_p99_us",
		"dataplane.allocs_per_pkt", "trace.overhead_pct"},
}

// fillIdleLayers reports the per-layer metrics the workload does not
// exercise as 0 and says which they are.
func (r *result) fillIdleLayers(workload string) {
	var idle []string
	for _, d := range perLayer {
		if _, ok := r.layer[d.name]; !ok {
			r.layer[d.name] = 0
			idle = append(idle, d.name)
		}
	}
	if len(idle) > 0 {
		r.note("not exercised by %s, reported as 0: %s", workload, strings.Join(idle, " "))
	}
}

// result is one workload run: the counts behind the correctness verdict,
// the metrics, and the environment they were measured in.
type result struct {
	attempted int64 // datagrams that had to be delivered
	failed    int64 // of those, not delivered
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string // sample counts and other context, printed as comments
	reported  []string // figures printed in the table but not gated (lat_p99_us, peak_rss_mb)
	env       envInfo
}

func newResult(cfg config) *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, env: captureEnv(cfg)}
}

// report adds a figure to the table that is not a gated metric.
func (r *result) report(name string, value float64, unit string) {
	r.reported = append(r.reported, fmt.Sprintf("metric %-26s %14.6g %s (reported, not gated)", name, value, unit))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) metrics(trace bool) ([]metricDef, map[string]float64) {
	if trace {
		return perLayer, r.layer
	}
	return endToEnd, r.e2e
}

// table renders the human-readable report: notes, then one line per
// metric, then fail_pct (carried in the JSON as attempted/failed).
func (r *result) table(trace bool) string {
	var b strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	defs, vals := r.metrics(trace)
	for _, d := range defs {
		fmt.Fprintf(&b, "metric %-26s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	if !trace {
		for _, line := range r.reported {
			fmt.Fprintln(&b, line)
		}
	}
	fail := 0.0
	if r.attempted > 0 {
		fail = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "metric %-26s %14.6g %% (%d of %d)\n", "fail_pct", fail, r.failed, r.attempted)
	return b.String()
}

func (r *result) outcome(trace bool) outcome {
	defs, vals := r.metrics(trace)
	o := outcome{Correct: true, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		o.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return o
}

// checkMetrics reports a metric that is missing or not a finite number.
func (r *result) checkMetrics(trace bool) error {
	defs, vals := r.metrics(trace)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", d.name, v)
		}
	}
	return nil
}

// envInfo is the environment every result records.
type envInfo struct {
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Trace           bool    `json:"trace"`
	NProc           int     `json:"nproc"`
	HarnessMaxProcs int     `json:"harness_gomaxprocs"`
	GatewayMaxProcs int     `json:"gateway_gomaxprocs,omitempty"`
	GoVersion       string  `json:"go_version"`
	Kernel          string  `json:"kernel"`
	Transport       string  `json:"transport"`
	Pinning         string  `json:"pinning"`
	Sleep50usP50    float64 `json:"sleep_50us_p50_us"`
	RmemDefault     int64   `json:"net_core_rmem_default"`
}

// captureEnv records the machine facts that explain a result. The workload
// sets its GOMAXPROCS before this runs.
func captureEnv(cfg config) envInfo {
	e := envInfo{
		Workload:        cfg.workload,
		Seed:            cfg.seed,
		Seconds:         cfg.seconds,
		Trace:           cfg.trace,
		NProc:           runtime.NumCPU(),
		HarnessMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Kernel:          strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Transport:       "in-process",
		Pinning:         "none",
		Sleep50usP50:    sleepGranularity(),
	}
	if pinned() {
		e.Pinning = fmt.Sprintf("program under test on CPU %d, load on CPU %d", sutCPU, loadCPU)
	}
	e.RmemDefault, _ = strconv.ParseInt(strings.TrimSpace(readFile("/proc/sys/net/core/rmem_default")), 10, 64)
	return e
}

// sleepGranularity measures what time.Sleep(50µs) really sleeps, median of
// 21 tries, in µs.
func sleepGranularity() float64 {
	var d []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		d = append(d, float64(time.Since(t).Nanoseconds())/1e3)
	}
	sort.Float64s(d)
	return d[len(d)/2]
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
