package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hpfq/internal/fluid"
	"hpfq/internal/topo"
)

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/64 {
			t.Errorf("quantile(%g) = %g, want %g within 1/64", q, got, want)
		}
	}
	if m := h.mean(); math.Abs(m-50000.5) > 1e-6 {
		t.Errorf("mean = %g", m)
	}
	for _, v := range []uint64{0, 63, 64, 127, 128, 1 << 40, math.MaxUint64} {
		lo, w := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+w*1.0000001 && v != math.MaxUint64 {
			t.Errorf("value %d outside its bucket [%g, %g)", v, lo, lo+w)
		}
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	for _, size := range []int{echoSize, treeSize, 13} {
		b := make([]byte, size)
		c := classOf(7, 1, 42, 4)
		fillDatagram(b, 7, c, 1, 3, 42)
		p, err := verifyDatagram(b, 7, size, 4)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if p.stream != 1 || p.slot != 3 || p.seq != 42 || p.class != c {
			t.Fatalf("size %d: parsed %+v", size, p)
		}
		b[size-1] ^= 1
		if _, err := verifyDatagram(b, 7, size, 4); err == nil {
			t.Fatalf("size %d: corrupt last byte passed", size)
		}
		if _, err := verifyDatagram(b[:size-1], 7, size, 4); err == nil {
			t.Fatalf("size %d: short datagram passed", size)
		}
	}
	a, b := make([]byte, 64), make([]byte, 64)
	fillDatagram(a, 1, 0, 0, 0, 5)
	fillDatagram(b, 2, 0, 0, 0, 5)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds gave the same contents")
	}
}

func TestTreeScheduleFromSeed(t *testing.T) {
	a, b, c := treeSchedule(1, 1), treeSchedule(1, 1), treeSchedule(2, 1)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("lengths %d %d %d", len(a), len(b), len(c))
	}
	var perClass [4]int
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i].class != c[i].class
		perClass[a[i].class]++
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
	if !same || !differ {
		t.Fatalf("same seed identical: %v, other seed differs: %v", same, differ)
	}
	// 1 s at 1.5 × 20 Mb/s of 1000-byte datagrams: 500 rt, 3250 greedy.
	if perClass[treeRT] != 500 || perClass[1]+perClass[2]+perClass[3] != 3250 {
		t.Fatalf("per-class counts %v", perClass)
	}
}

func TestIdealMatchesFluidIdealShares(t *testing.T) {
	tree, err := topo.Parse(treeSpec)
	if err != nil {
		t.Fatal(err)
	}
	demand := map[int]float64{}
	active := map[int]bool{}
	for _, l := range tree.Leaves() {
		demand[l.Session] = math.Inf(1)
		active[l.Session] = true
	}
	got, err := idealRates(tree, treeLink, demand)
	if err != nil {
		t.Fatal(err)
	}
	want := fluid.IdealShares(tree, treeLink, active)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-6*treeLink {
			t.Errorf("leaf %d: ideal %g, fluid.IdealShares %g", id, got[id], w)
		}
	}
	// rt below its guarantee: its leftover goes to the backlogged a, b, c.
	demand[treeRT] = treeRTRate
	got, err = idealRates(tree, treeLink, demand)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[treeRT]-treeRTRate) > 1 {
		t.Errorf("rt ideal %g, want its demand %g", got[treeRT], treeRTRate)
	}
	for _, id := range treeGreedy {
		if w := (treeLink - treeRTRate) / 3; math.Abs(got[id]-w) > 1 {
			t.Errorf("leaf %d ideal %g, want %g", id, got[id], w)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the harness's metric names and
// units in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: harness %s %s, BENCHMARK.json %s %s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || liveLayer[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
	}
}

// gatewayBin is an hpfqgw binary built once for the smoke tests.
var gatewayBin string

func TestMain(m *testing.M) {
	code := func() int {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		gatewayBin = filepath.Join(dir, "hpfqgw")
		build := exec.Command("go", "build", "-o", gatewayBin, "./cmd/hpfqgw")
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			os.Stderr.Write(out)
			panic(err)
		}
		return m.Run()
	}()
	os.Exit(code)
}

func smokeConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, gateway: gatewayBin}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric is present, finite and carries its unit, and that the
// traced run measured each per-layer metric the workload exercises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(name, trace)
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			live := map[string]bool{}
			if trace {
				for _, n := range append(append([]string(nil), probeLayer...), liveLayer[name]...) {
					live[n] = true
					if _, ok := res.layer[n]; !ok {
						t.Errorf("%s: live per-layer metric %s not measured", name, n)
					}
				}
				res.fillIdleLayers(name)
			}
			if err := res.checkMetrics(trace); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			defs, vals := res.metrics(trace)
			for _, d := range defs {
				if v := vals[d.name]; v < 0 && d.name != "trace.overhead_pct" {
					t.Errorf("%s: %s = %g %s is negative", name, d.name, v, d.unit)
				} else if v == 0 && (!trace || live[d.name]) && !zeroAllowed[d.name] {
					t.Errorf("%s: %s reads 0", name, d.name)
				}
			}
			// gw_tree_fec may lose an rt datagram to a kernel receive-buffer
			// overflow when the host stalls the gateway (README.md); the
			// closed loops may lose nothing.
			if res.attempted < 1 || res.failed != 0 && (name != "gw_tree_fec" || res.failed*100 > res.attempted) {
				t.Errorf("%s: attempted %d, failed %d", name, res.attempted, res.failed)
			}
		}
	}
}

// zeroAllowed are live metrics that legitimately read 0 in a short run.
var zeroAllowed = map[string]bool{
	"hpfqgw.drop_tail_pct": true, // none on gw_echo
	"hpfqgw.rcvbuf_errors": true,
	"trace.overhead_pct":   true,
}

// TestCommandOutput checks the one-command contract: the last line is the
// JSON outcome with exactly the end-to-end metrics and their units.
func TestCommandOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "engine_deep", "--seed", "4", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatal(err)
	}
	if !o.Correct || o.Attempted < 1 || len(o.Metrics) != len(endToEnd) {
		t.Fatalf("outcome %+v", o)
	}
	for _, d := range endToEnd {
		if m, ok := o.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v", d.name, m)
		}
	}
	if !strings.Contains(stdout.String(), `"seed":4`) {
		t.Error("the env line does not echo the seed")
	}
}

// TestGateFailsOnSinkLoss makes the upstream sink lose exactly one
// datagram: the correctness gate must refuse the run.
func TestGateFailsOnSinkLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	cfg := smokeConfig("gw_echo", false)
	cfg.sinkDropOne = true
	_, err := runEcho(cfg)
	if err == nil {
		t.Fatal("a datagram lost at the sink passed the correctness gate")
	}
	if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("gate failed for another reason: %v", err)
	}
	t.Log(err)
}
