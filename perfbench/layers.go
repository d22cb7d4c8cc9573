package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/fec"
	"hpfq/internal/hier"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
	"hpfq/internal/shard"
	"hpfq/internal/topo"
)

// Layer probes: the traced run times the harness's calls into each library
// layer's public functions on fixed inputs, the same in every workload.
// Each probe reports the median of probeReps repetitions.
const probeReps = 5

// runLayerProbes fills the probe metrics of res.layer. An error means a
// layer misbehaved on its fixed input.
func runLayerProbes(res *result) error {
	var err error
	res.layer["pifo.enqueue_ns"], res.layer["pifo.dequeue_ns"], err = probePIFO()
	if err != nil {
		return fmt.Errorf("pifo probe: %w", err)
	}
	if res.layer["hier.enqueue_ns"], res.layer["hier.dequeue_ns"], err = probeHier(); err != nil {
		return fmt.Errorf("hier probe: %w", err)
	}
	if res.layer["fec.encode_ns"], err = probeFEC(); err != nil {
		return fmt.Errorf("fec probe: %w", err)
	}
	if res.layer["dataplane.refuse_ns"], res.layer["dataplane.refuse_allocs"], err = probeRefuse(); err != nil {
		return fmt.Errorf("refuse probe: %w", err)
	}
	if res.layer["obs.snapshot_us"], err = probeSnapshot(); err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	if res.layer["topo.parse_ms"], res.layer["shard.new_ms"], err = probeSetup(); err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	return nil
}

// probeQueue times enqueueing pkts then dequeueing them all, rounds times
// per repetition, in ns per operation.
func probeQueue(enq func(float64, *packet.Packet), deq func(float64) *packet.Packet, pkts []*packet.Packet, rounds int) (float64, float64, error) {
	var e, d []float64
	now := 0.0
	for r := 0; r < probeReps; r++ {
		var enqNs, deqNs int64
		for i := 0; i < rounds; i++ {
			t := time.Now()
			for _, p := range pkts {
				enq(now, p)
			}
			t1 := time.Now()
			for range pkts {
				now += 1e-9
				if deq(now) == nil {
					return 0, 0, errors.New("scheduler lost a packet")
				}
			}
			deqNs += time.Since(t1).Nanoseconds()
			enqNs += t1.Sub(t).Nanoseconds()
		}
		ops := float64(rounds * len(pkts))
		e = append(e, float64(enqNs)/ops)
		d = append(d, float64(deqNs)/ops)
	}
	return median(e), median(d), nil
}

// probePIFO: a flat 4-class WF²Q+ pifo.Sched, gw_echo's configuration.
func probePIFO() (float64, float64, error) {
	s := pifo.NewSched(pifo.WF2QPlus(), 1e11)
	for i := 0; i < echoClasses; i++ {
		s.AddSession(i, 2.5e10)
	}
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = packet.New(i%echoClasses, echoSize*8)
	}
	return probeQueue(s.Enqueue, s.Dequeue, pkts, 2000)
}

// probeHier: hier.BuildSpec over engine_deep's 4096-leaf topology, with a
// window's worth of packets spread over the leaves.
func probeHier() (float64, float64, error) {
	top, err := topo.Parse(deepSpec())
	if err != nil {
		return 0, 0, err
	}
	tr, err := hier.BuildSpec(top, deepRate, "WF2Q+", hier.Resolver("WF2Q+", nil, nil))
	if err != nil {
		return 0, 0, err
	}
	pkts := make([]*packet.Packet, deepWindow)
	for i := range pkts {
		pkts[i] = packet.New(i*(deepLeaves/deepWindow)%deepLeaves, deepSize*8)
	}
	return probeQueue(tr.Enqueue, tr.Dequeue, pkts, 40)
}

// probeFEC: an RS(8,2) encoder on 1000-byte datagrams, ns per source
// datagram including its share of repair generation.
func probeFEC() (float64, error) {
	spec, err := fec.ParseSpec("rs-8-2")
	if err != nil {
		return 0, err
	}
	enc, err := fec.NewEncoder(1, spec)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, treeSize)
	fillDatagram(payload, 1, 1, 0, 0, 0)
	dst := make([]byte, fec.SourceOverhead+treeSize)
	bufs := [][]byte{make([]byte, 2048), make([]byte, 2048)}
	next := 0
	getBuf := func(n int) []byte {
		b := bufs[next%len(bufs)][:n]
		next++
		return b
	}
	var per []float64
	const n = 4000
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			_, full, err := enc.AddSource(payload, dst)
			if err != nil {
				return 0, err
			}
			if full {
				enc.Flush(getBuf)
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(per), nil
}

// probeRefuse: IngestCtx into a class already at its -queuecap, the path
// every tail-dropped datagram of gw_tree_fec takes. Returns ns and
// allocations per refused datagram.
func probeRefuse() (float64, float64, error) {
	d, err := dataplane.New("WF2Q+", 1e6, dataplane.WithQueueCap(4), dataplane.WithMetrics())
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	if err := d.AddClass(0, 1e6); err != nil {
		return 0, 0, err
	}
	b := make([]byte, treeSize)
	for i := 0; i < 4; i++ {
		if err := d.IngestCtx(0, make([]byte, treeSize), nil); err != nil {
			return 0, 0, err
		}
	}
	var ns, allocs []float64
	const n = 20000
	for r := 0; r < probeReps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := d.IngestCtx(0, b, nil); !errors.Is(err, dataplane.ErrQueueFull) {
				return 0, 0, fmt.Errorf("ingest into a full class returned %v", err)
			}
		}
		el := time.Since(t)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	}
	return median(ns), median(allocs), nil
}

// probeSnapshot: the obs snapshot behind /api/status, on gw_tree_fec's
// tree with metrics on and every class having seen traffic, in µs.
func probeSnapshot() (float64, error) {
	top, err := topo.Parse(treeSpec)
	if err != nil {
		return 0, err
	}
	sh, err := shard.New("WF2Q+", treeLink, 1, []dataplane.Option{
		dataplane.WithTopology(top), dataplane.WithMetrics(), dataplane.WithQueueCap(treeQueueCap)})
	if err != nil {
		return 0, err
	}
	defer sh.Close()
	for c := 0; c < 4; c++ {
		for i := 0; i < 8; i++ {
			sh.Ingest(c, make([]byte, treeSize)) // some are refused at the cap: that is traffic too
		}
	}
	var per []float64
	const n = 500
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			sh.Snapshot()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/n/1e3)
	}
	return median(per), nil
}

// probeSetup: topo.Parse of engine_deep's spec and shard.New over it, in
// ms each.
func probeSetup() (float64, float64, error) {
	spec := deepSpec()
	var parse, build []float64
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		top, err := topo.Parse(spec)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		sh, err := shard.New("WF2Q+", deepRate, 1, []dataplane.Option{dataplane.WithTopology(top)})
		if err != nil {
			return 0, 0, err
		}
		build = append(build, float64(time.Since(t1).Nanoseconds())/1e6)
		parse = append(parse, float64(t1.Sub(t).Nanoseconds())/1e6)
		sh.Close()
	}
	return median(parse), median(build), nil
}
