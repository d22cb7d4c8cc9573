package main

import (
	"encoding/json"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpfq"
	"hpfq/internal/faultconn"
)

func TestParseStall(t *testing.T) {
	if sp, err := parseStall(""); sp != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", sp, err)
	}
	sp, err := parseStall("100")
	if err != nil || sp.after != 100 || sp.dur != 0 {
		t.Fatalf("parseStall(100) = (%+v, %v), want after=100 dur=0 (forever)", sp, err)
	}
	sp, err = parseStall(" 5 , 20ms ")
	if err != nil || sp.after != 5 || sp.dur != 20*time.Millisecond {
		t.Fatalf("parseStall(5,20ms) = (%+v, %v)", sp, err)
	}
	for _, bad := range []string{"x", "-1", "5,", "5,nope", "5,-3ms"} {
		if _, err := parseStall(bad); err == nil {
			t.Errorf("parseStall(%q) accepted", bad)
		}
	}
}

// TestGatewayWatchdogInterruptsStall: an egress write that never returns is
// reached by the pump watchdog through the gateway's egress writer. The
// interrupted writes fail as transient stalls, the backlog burns down as
// retry-exhausted drops, and shutdown meets its drain deadline.
func TestGatewayWatchdogInterruptsStall(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1,
		hpfq.WithMetrics(), hpfq.WithWatchdog(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	stallForever := []faultconn.Option{faultconn.WithStall(0, 0)}
	gw, _, listen, runDone := testGateway(t, dp, gwConfig{fault: stallForever},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)

	client := dialClient(t, listen)
	for i := 0; i < 20; i++ {
		if _, err := client.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for dp.Health().WatchdogStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never saw the stall: %+v", dp.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	if err := gw.close(500 * time.Millisecond); err != nil {
		t.Fatalf("close after %v: %v", time.Since(start), err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
	m := dp.Snapshot()
	if m.DropReasons[hpfq.DropRetries].Packets == 0 {
		t.Fatalf("no retry-exhausted drops; drop reasons %v", m.DropReasons)
	}
	if !m.Conserved() {
		t.Error("metrics not conserved")
	}
}

// overloadedGateway assembles a loopback gateway over a deliberately tiny
// link with overload control, plus a background flooder that
// keeps the staging queue pinned until stopped.
func overloadedGateway(t *testing.T) (gw *gateway, dp *hpfq.ShardedDataplane, listen *net.UDPConn, stopFlood func()) {
	t.Helper()
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 1e5, 1,
		hpfq.WithMetrics(), hpfq.WithQueueCap(8), hpfq.WithOverload())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 1e5)
	gw, _, listen, _ = testGateway(t, dp, gwConfig{},
		func(netip.AddrPort, []byte) int { return 0 })

	flooder := dialClient(t, listen)
	stop := make(chan struct{})
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		b := make([]byte, 400)
		for {
			select {
			case <-stop:
				return
			default:
			}
			flooder.Write(b)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	stopFlood = func() {
		select {
		case <-floodDone:
		default:
			close(stop)
			<-floodDone
		}
	}
	t.Cleanup(stopFlood)
	return gw, dp, listen, stopFlood
}

// TestGatewayBrownoutRefusesNewFlows: once the engine browns out, datagrams
// from clients without an existing flow are refused before they create any
// state — the flow table stays put and the refusals are accounted as shed
// drops with cause "brownout" — while the established flow keeps flowing.
func TestGatewayBrownoutRefusesNewFlows(t *testing.T) {
	gw, dp, listen, stopFlood := overloadedGateway(t)
	defer gw.close(2 * time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for dp.HealthState() < hpfq.Overloaded {
		if time.Now().After(deadline) {
			t.Fatalf("engine never overloaded: %+v", dp.Health())
		}
		time.Sleep(time.Millisecond)
	}

	// A second client knocks while the brownout holds. Its datagrams must
	// be refused at the door: no flow-table entry, shed accounting instead.
	newcomer := dialClient(t, listen)
	sawShed := false
	for time.Now().Before(deadline) {
		if _, err := newcomer.Write(make([]byte, 400)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if sh := dp.Snapshot().ShedReasons[hpfq.ShedBrownout]; sh.Packets > 0 {
			sawShed = true
			break
		}
	}
	if !sawShed {
		t.Fatalf("no brownout sheds recorded: %+v", dp.Snapshot().ShedReasons)
	}
	if dp.HealthState() < hpfq.Overloaded {
		t.Fatalf("health receded mid-check: %v", dp.HealthState())
	}
	if c := gw.ft.count(); c != 1 {
		t.Fatalf("flow table has %d flows, want 1 (newcomer must not be admitted)", c)
	}

	// Pressure recedes once the flood stops; a new client is then welcome.
	stopFlood()
	for dp.HealthState() != hpfq.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("engine never recovered: %+v", dp.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	latecomer := dialClient(t, listen)
	for gw.ft.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("recovered gateway refused a new flow")
		}
		if _, err := latecomer.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOverloadSoak cycles the gateway through overload ramps and idle
// recovery windows for a wall-clock duration (default a few seconds; set
// HPFQ_SOAK=5m for the minutes-scale run), checking that every cycle sheds
// under pressure and recovers to healthy afterwards. With HPFQ_SOAK_OUT
// set to a benchjson document (e.g. BENCH_dataplane.json), the shed and
// recovery stats are appended to it.
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	dur := 3 * time.Second
	if env := os.Getenv("HPFQ_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("HPFQ_SOAK=%q: %v", env, err)
		}
		dur = d
	}

	gw, dp, listen, stopFlood := overloadedGateway(t)
	defer gw.close(2 * time.Second)
	// A would-be client knocking throughout: while the brownout holds its
	// datagrams are refused at the door, feeding the shed counters.
	knocker := dialClient(t, listen)

	start := time.Now()
	var cycles, stressed, recoveries int
	for time.Since(start) < dur {
		// Stress leg: the flooder pins the queue; wait for degraded-or-worse.
		legEnd := time.Now().Add(time.Second)
		for time.Now().Before(legEnd) {
			if dp.HealthState() >= hpfq.Degraded {
				stressed++
				break
			}
			time.Sleep(time.Millisecond)
		}
		cycles++
		for hold := time.Now().Add(200 * time.Millisecond); time.Now().Before(hold); {
			if dp.HealthState() >= hpfq.Overloaded {
				knocker.Write(make([]byte, 100))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	stopFlood()
	legEnd := time.Now().Add(10 * time.Second)
	for time.Now().Before(legEnd) {
		if dp.HealthState() == hpfq.Healthy {
			recoveries++
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	h := dp.Health()
	m := dp.Snapshot()
	t.Logf("soak: %d cycles, %d stressed, %d recoveries, shed=%d brownouts=%d drops=%d",
		cycles, stressed, recoveries, m.Shed.Packets, h.BrownoutTransitions, m.Dropped.Packets)
	if stressed == 0 {
		t.Fatalf("soak never reached degraded in %d cycles: %+v", cycles, h)
	}
	if recoveries == 0 {
		t.Fatalf("soak never recovered to healthy: %+v", h)
	}
	if !m.Conserved() {
		t.Error("metrics not conserved after soak")
	}

	if out := os.Getenv("HPFQ_SOAK_OUT"); out != "" {
		appendSoakStats(t, out, map[string]float64{
			"cycles":               float64(cycles),
			"stressed_cycles":      float64(stressed),
			"recoveries":           float64(recoveries),
			"shed_packets":         float64(m.Shed.Packets),
			"brownout_transitions": float64(h.BrownoutTransitions),
			"dropped_packets":      float64(m.Dropped.Packets),
		})
	}
}

// appendSoakStats merges an OverloadSoak entry into a benchjson document,
// replacing any previous soak entry so repeated runs don't accumulate.
func appendSoakStats(t *testing.T, path string, extra map[string]float64) {
	t.Helper()
	doc := struct {
		Goos       string            `json:"goos,omitempty"`
		Goarch     string            `json:"goarch,omitempty"`
		Pkg        string            `json:"pkg,omitempty"`
		CPU        string            `json:"cpu,omitempty"`
		Benchmarks []json.RawMessage `json:"benchmarks"`
	}{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("HPFQ_SOAK_OUT %s: %v", path, err)
		}
	}
	kept := doc.Benchmarks[:0]
	for _, raw := range doc.Benchmarks {
		var probe struct {
			Name string `json:"name"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Name == "OverloadSoak" {
			continue
		}
		kept = append(kept, raw)
	}
	entry, err := json.Marshal(map[string]any{
		"name":  "OverloadSoak",
		"extra": extra,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc.Benchmarks = append(kept, entry)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
