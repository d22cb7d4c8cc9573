package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestCollectorDisabledIsInert: the zero value records nothing and
// snapshots to zeros with Enabled false.
func TestCollectorDisabledIsInert(t *testing.T) {
	var c Collector
	c.InitObs("X", 100)
	c.RecordEnqueue(0, 0, 10)
	c.RecordDequeue(1, 0, 10)
	c.RecordDrop(2, 0, 10)
	m := c.Snapshot()
	if m.Enabled {
		t.Error("Enabled true without EnableMetrics")
	}
	if m.Enqueued.Packets != 0 || len(m.Sessions) != 0 {
		t.Errorf("disabled collector accumulated state: %+v", m)
	}
	if m.Name != "X" || m.Rate != 100 {
		t.Errorf("Name/Rate = %q/%g", m.Name, m.Rate)
	}
}

// TestCollectorCountsAndConservation: counters, depths, drops, and the
// conservation law.
func TestCollectorCountsAndConservation(t *testing.T) {
	var c Collector
	c.InitObs("X", 100)
	c.EnableMetrics()
	c.RegisterSession(0, 60)
	c.RegisterSession(1, 40)

	c.RecordEnqueue(0.0, 0, 8)
	c.RecordEnqueue(0.1, 0, 8)
	c.RecordEnqueue(0.2, 1, 16)
	c.RecordDrop(0.3, 1, 16)
	c.RecordDequeue(0.5, 0, 8)

	m := c.Snapshot()
	if !m.Conserved() {
		t.Errorf("not conserved: %+v", m)
	}
	if m.Enqueued.Packets != 3 || m.Dequeued.Packets != 1 || m.Dropped.Packets != 1 {
		t.Errorf("counts enq=%d deq=%d drop=%d", m.Enqueued.Packets, m.Dequeued.Packets, m.Dropped.Packets)
	}
	if m.Offered() != 4 {
		t.Errorf("Offered = %d, want 4", m.Offered())
	}
	if m.QueueLen != 2 || m.MaxQueueLen != 3 {
		t.Errorf("qlen=%d max=%d, want 2/3", m.QueueLen, m.MaxQueueLen)
	}
	if m.Enqueued.Bits != 32 {
		t.Errorf("enqueued bits %g, want 32", m.Enqueued.Bits)
	}
	s0, ok := m.Session(0)
	if !ok || s0.Rate != 60 || s0.Enqueued.Packets != 2 || s0.QueueLen != 1 {
		t.Errorf("session 0 = %+v", s0)
	}
	s1, _ := m.Session(1)
	if s1.Dropped.Packets != 1 || s1.QueueLen != 1 {
		t.Errorf("session 1 = %+v", s1)
	}
	if _, ok := m.Session(7); ok {
		t.Error("session 7 should not exist")
	}
}

// TestDelayHistogram: delays land in the right fixed buckets and the
// min/mean/max track samples.
func TestDelayHistogram(t *testing.T) {
	var c Collector
	c.InitObs("X", 1)
	c.EnableMetrics()
	c.RegisterSession(0, 1)
	delays := []float64{5e-7, 5e-4, 2e-2, 50} // buckets 0, 3, 5, overflow
	now := 0.0
	for _, d := range delays {
		c.RecordEnqueue(now, 0, 1)
		c.RecordDequeue(now+d, 0, 1)
		now += 100
	}
	s, _ := c.Snapshot().Session(0)
	wantBuckets := map[int]int64{0: 1, 3: 1, 5: 1, NumDelayBuckets - 1: 1}
	for i, n := range s.Delay.Hist {
		if n != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
	if s.Delay.Count != 4 || s.Delay.Min != 5e-7 || s.Delay.Max != 50 {
		t.Errorf("delay stats %+v", s.Delay)
	}
	wantMean := (5e-7 + 5e-4 + 2e-2 + 50) / 4
	if math.Abs(s.Delay.Mean()-wantMean) > 1e-12 {
		t.Errorf("mean %g, want %g", s.Delay.Mean(), wantMean)
	}
}

// TestWFIMeasurement: a session served exactly at its rate shows ~0 WFI; a
// session starved for a second shows ~1 s of lag.
func TestWFIMeasurement(t *testing.T) {
	var c Collector
	c.InitObs("X", 2)
	c.EnableMetrics()
	c.RegisterSession(0, 1) // 1 bit/sec guaranteed

	// Exactly paced: enqueue at t, dequeue one 1-bit packet per second.
	for i := 0; i < 4; i++ {
		c.RecordEnqueue(float64(i), 0, 1)
		c.RecordDequeue(float64(i), 0, 1)
	}
	if s, _ := c.Snapshot().Session(0); s.WFI > 1e-9 {
		t.Errorf("paced WFI = %g, want ~0", s.WFI)
	}

	// Starvation: backlogged at t=10, first service only at t=11.5.
	c.RecordEnqueue(10, 0, 1)
	c.RecordDequeue(11.5, 0, 1)
	if s, _ := c.Snapshot().Session(0); math.Abs(s.WFI-1.5) > 1e-9 {
		t.Errorf("starved WFI = %g, want 1.5", s.WFI)
	}
}

// TestRingTracer: wraparound keeps the newest events, oldest-first.
func TestRingTracer(t *testing.T) {
	r := NewRingTracer(3)
	for i := 0; i < 5; i++ {
		r.Enqueue(Event{Time: float64(i)})
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Time != 2 || evs[2].Time != 4 {
		t.Errorf("Events = %+v", evs)
	}
}

// TestJSONLTracer: every line is valid JSON; virtual-time fields appear
// exactly when the event carries them.
func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)

	var c Collector
	c.InitObs("WF2Q+", 100)
	c.SetTracer(Named("root", tr))
	c.RecordEnqueue(0.5, 3, 8)
	c.RecordDequeueVT(0.6, 3, 8, 1.25, 1.33, 1.25)
	c.RecordDrop(0.7, 4, 8)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	if lines[0]["type"] != "enqueue" || lines[0]["node"] != "root" || lines[0]["session"] != float64(3) {
		t.Errorf("enqueue line = %v", lines[0])
	}
	if _, has := lines[0]["vstart"]; has {
		t.Error("enqueue line should not carry virtual times")
	}
	if lines[1]["type"] != "dequeue" || lines[1]["vstart"] != 1.25 || lines[1]["vfinish"] != 1.33 || lines[1]["vtime"] != 1.25 {
		t.Errorf("dequeue line = %v", lines[1])
	}
	if lines[2]["type"] != "drop" || lines[2]["session"] != float64(4) {
		t.Errorf("drop line = %v", lines[2])
	}
}

// TestTracerWithoutMetrics: a tracer alone fires hooks but accumulates no
// counters.
func TestTracerWithoutMetrics(t *testing.T) {
	r := NewRingTracer(8)
	var c Collector
	c.InitObs("X", 1)
	c.SetTracer(r)
	c.RecordEnqueue(0, 0, 1)
	c.RecordDequeue(1, 0, 1)
	if r.Total() != 2 {
		t.Errorf("tracer saw %d events", r.Total())
	}
	if m := c.Snapshot(); m.Enabled || m.Enqueued.Packets != 0 {
		t.Errorf("metrics accumulated without EnableMetrics: %+v", m)
	}
}

// TestNodeCollectorSkipsTimeStats: reference-time collectors count but do
// not produce delay or WFI numbers.
func TestNodeCollectorSkipsTimeStats(t *testing.T) {
	var c Collector
	c.InitNodeObs("WF2Q+", 50)
	c.EnableMetrics()
	c.RegisterSession(0, 25)
	c.RecordEnqueue(0, 0, 8)
	c.RecordDequeueVT(0.1, 0, 8, 0, 0.16, 0.16)
	s, _ := c.Snapshot().Session(0)
	if s.Enqueued.Packets != 1 || s.Dequeued.Packets != 1 {
		t.Errorf("counts %+v", s)
	}
	if s.Delay.Count != 0 || s.WFI != 0 {
		t.Errorf("reference-time node produced time stats: %+v", s)
	}
}

// TestWriteTable: smoke-test the renderer.
func TestWriteTable(t *testing.T) {
	var c Collector
	c.InitObs("WF2Q+", 45e6)
	c.EnableMetrics()
	c.RegisterSession(0, 13.5e6)
	c.RecordEnqueue(0, 0, 8000)
	c.RecordDequeue(0.001, 0, 8000)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"WF2Q+", "45Mbps", "13.5Mbps", "session", "conserved=true", "1.000ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestSimMetricsRatio: the sim/wall ratio guards against division by zero.
func TestSimMetricsRatio(t *testing.T) {
	if (SimMetrics{}).SimPerWall() != 0 {
		t.Error("zero wall time should give ratio 0")
	}
	m := SimMetrics{SimTime: 10, WallSeconds: 2}
	if m.SimPerWall() != 5 {
		t.Errorf("ratio = %g", m.SimPerWall())
	}
}

// TestDropReasons: tagged drops accumulate per-reason counters, appear on
// trace events, and are rendered by WriteTable; untagged drops stay out of
// the reason map.
func TestDropReasons(t *testing.T) {
	var c Collector
	c.InitObs("dp", 1e6)
	c.EnableMetrics()
	ring := NewRingTracer(8)
	c.SetTracer(ring)
	c.RegisterSession(0, 5e5)

	c.RecordDropReason(0.1, 0, 8000, DropTail)
	c.RecordDropReason(0.2, 0, 4000, DropTail)
	c.RecordDropReason(0.3, 0, 16000, DropBytes)
	c.RecordDrop(0.4, 0, 1000) // untagged

	m := c.Snapshot()
	if m.Dropped.Packets != 4 {
		t.Fatalf("dropped = %d, want 4", m.Dropped.Packets)
	}
	if got := m.DropReasons[DropTail]; got.Packets != 2 || got.Bits != 12000 {
		t.Errorf("tail-drop counter = %+v, want 2 pkts / 12000 bits", got)
	}
	if got := m.DropReasons[DropBytes]; got.Packets != 1 {
		t.Errorf("byte-cap counter = %+v, want 1 pkt", got)
	}
	if len(m.DropReasons) != 2 {
		t.Errorf("reason map %v, want exactly tail-drop and byte-cap", m.DropReasons)
	}

	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("traced %d events, want 4", len(evs))
	}
	if evs[0].Reason != DropTail || evs[2].Reason != DropBytes || evs[3].Reason != "" {
		t.Errorf("trace reasons = %q %q %q %q", evs[0].Reason, evs[1].Reason, evs[2].Reason, evs[3].Reason)
	}

	var buf strings.Builder
	if err := m.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tail-drop=2") || !strings.Contains(buf.String(), "byte-cap=1") {
		t.Errorf("table missing drop reasons:\n%s", buf.String())
	}
}

// TestRetryCounters: RecordRetry accumulates global, per-session, and
// per-reason counters without touching enqueue/dequeue/drop or the
// conservation law, and delivers EventRetry to RetryTracer implementations.
func TestRetryCounters(t *testing.T) {
	var c Collector
	c.InitObs("dp", 1e6)
	c.EnableMetrics()
	ring := NewRingTracer(8)
	c.SetTracer(ring)
	c.RegisterSession(0, 5e5)

	c.RecordEnqueue(0.0, 0, 8000)
	c.RecordDequeue(0.1, 0, 8000)
	c.RecordRetry(0.2, 0, 8000, RetryTransient)
	c.RecordRetry(0.3, 0, 8000, RetryTransient)
	c.RecordRetry(0.4, 0, 8000, "resend")

	m := c.Snapshot()
	if m.Retried.Packets != 3 || m.Retried.Bits != 24000 {
		t.Errorf("retried = %+v, want 3 pkts / 24000 bits", m.Retried)
	}
	if got := m.RetryReasons[RetryTransient]; got.Packets != 2 {
		t.Errorf("transient retries = %+v, want 2", got)
	}
	if got := m.RetryReasons["resend"]; got.Packets != 1 {
		t.Errorf("resend retries = %+v, want 1", got)
	}
	if m.Dropped.Packets != 0 || m.Enqueued.Packets != 1 || m.Dequeued.Packets != 1 {
		t.Errorf("retries disturbed enq/deq/drop: %+v", m)
	}
	if !m.Conserved() {
		t.Error("retries broke conservation")
	}
	s, _ := m.Session(0)
	if s.Retried.Packets != 3 {
		t.Errorf("session retried = %+v, want 3", s.Retried)
	}

	var retries int
	for _, ev := range ring.Events() {
		if ev.Type == EventRetry {
			retries++
			if ev.Reason == "" {
				t.Error("retry event missing reason")
			}
		}
	}
	if retries != 3 {
		t.Errorf("tracer saw %d retry events, want 3", retries)
	}

	var buf strings.Builder
	if err := m.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "write-transient=2") || !strings.Contains(buf.String(), "retry=3") {
		t.Errorf("table missing retry counters:\n%s", buf.String())
	}
}

// TestRetryTracerOptional: a tracer without the Retry method still receives
// enqueue/dequeue/drop events, and RecordRetry does not panic.
func TestRetryTracerOptional(t *testing.T) {
	var c Collector
	c.InitObs("dp", 1e6)
	c.SetTracer(plainTracer{})
	c.RecordRetry(0, 0, 100, RetryTransient) // must not panic
	// Named wrapping a plain tracer must also swallow retries safely.
	c.SetTracer(Named("n", plainTracer{}))
	c.RecordRetry(0, 0, 100, RetryTransient)
}

// plainTracer implements only the base Tracer interface.
type plainTracer struct{}

func (plainTracer) Enqueue(Event) {}
func (plainTracer) Dequeue(Event) {}
func (plainTracer) Drop(Event)    {}

// TestDropReasonsSnapshotIsolated: mutating a snapshot's reason map must not
// write through to the live collector.
func TestDropReasonsSnapshotIsolated(t *testing.T) {
	var c Collector
	c.EnableMetrics()
	c.RecordDropReason(0, 0, 100, DropTail)
	m := c.Snapshot()
	m.DropReasons[DropTail] = Counter{Packets: 99}
	if c.Snapshot().DropReasons[DropTail].Packets != 1 {
		t.Error("snapshot shares reason map with collector")
	}
}

// TestBatchWriteAccounting: RecordBatchWrite tallies batch count and
// batched packets (no conservation terms — the dequeues it groups are
// already counted), AvgBatch divides them, the disabled collector stays
// inert, and WriteTable surfaces the batch line only when batches happened.
func TestBatchWriteAccounting(t *testing.T) {
	var off Collector
	off.InitObs("X", 100)
	off.RecordBatchWrite(0, 8, 64)
	if m := off.Snapshot(); m.BatchWrites != 0 || m.BatchedPackets != 0 {
		t.Errorf("disabled collector accumulated batches: %+v", m)
	}

	var c Collector
	c.InitObs("X", 100)
	c.EnableMetrics()
	c.RegisterSession(0, 100)
	for i := 0; i < 3; i++ {
		c.RecordEnqueue(float64(i), 0, 8)
		c.RecordDequeue(float64(i)+0.5, 0, 8)
	}
	c.RecordBatchWrite(2.5, 2, 16)
	c.RecordBatchWrite(2.6, 1, 8)
	c.RecordBatchWrite(2.7, 0, 0) // empty batches are not batches

	m := c.Snapshot()
	if m.BatchWrites != 2 || m.BatchedPackets != 3 {
		t.Errorf("batches=%d packets=%d, want 2/3", m.BatchWrites, m.BatchedPackets)
	}
	if got := m.AvgBatch(); got != 1.5 {
		t.Errorf("AvgBatch = %g, want 1.5", got)
	}
	if !m.Conserved() {
		t.Errorf("batch accounting broke conservation: %+v", m)
	}

	var buf bytes.Buffer
	if err := m.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "batches: writes=2 packets=3 avg=1.50") {
		t.Errorf("table missing batch line:\n%s", buf.String())
	}

	var none Metrics
	if none.AvgBatch() != 0 {
		t.Error("AvgBatch without batches should be 0, not NaN")
	}
	buf.Reset()
	if err := c.Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFECAccounting(t *testing.T) {
	var inert Collector
	inert.RecordFEC(1, 1, 1, 1) // disabled collector stays inert
	if m := inert.Snapshot(); m.FECEncoded != 0 || m.FECRepairSent != 0 {
		t.Errorf("disabled collector accumulated FEC counters: %+v", m)
	}

	var c Collector
	c.InitObs("dataplane", 1e6)
	c.EnableMetrics()
	c.RecordFEC(8, 2, 0, 0) // one block encoded on the send side
	c.RecordFEC(0, 0, 3, 1) // receiver feedback
	c.RecordFEC(0, 0, 0, 0) // zero deltas are fine

	m := c.Snapshot()
	if m.FECEncoded != 8 || m.FECRepairSent != 2 || m.FECRecovered != 3 || m.FECUnrecoverable != 1 {
		t.Errorf("fec counters = %d/%d/%d/%d, want 8/2/3/1",
			m.FECEncoded, m.FECRepairSent, m.FECRecovered, m.FECUnrecoverable)
	}
	if !m.Conserved() {
		t.Errorf("FEC accounting broke conservation: %+v", m)
	}

	var buf bytes.Buffer
	if err := m.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fec: encoded=8 repairs=2 recovered=3 unrecoverable=1") {
		t.Errorf("table missing fec line:\n%s", buf.String())
	}
}
