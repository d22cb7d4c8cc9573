// Command hpfqgw is a UDP forwarding gateway whose egress is paced by the
// paper's schedulers: datagrams arriving on -listen are classified, staged
// per class, released in WF²Q+ (or any registered algorithm's) order at the
// configured link rate, and forwarded to -upstream. Each client gets a
// NAT-style flow — a dedicated upstream socket with a return-path relay — so
// replies reach the client that sent the request; a flow idle in both
// directions for -flowttl retires itself (-maxflows bounds the table,
// idlest first).
//
// Flat mode gives each class an explicit rate:
//
//	hpfqgw -listen :9000 -upstream 10.0.0.2:9000 -rate 10e6 \
//	       -classes "0=7.5e6,1=2.5e6"
//
// Hierarchical mode shares the link through a tree (leaf syntax
// name=share:session, interior syntax name=share(children...)):
//
//	hpfqgw -listen :9000 -upstream 10.0.0.2:9000 -rate 45e6 \
//	       -topo "root=1(video=3(hd=2:0,sd=1:1),bulk=1:2)"
//
// -classify picks the demultiplexer: "hash" (default) gives each client
// address a sticky class, "byte0" reads the class from the first payload
// byte. -metrics prints the per-class counter tables on shutdown.
//
// -admin starts the HTTP control plane (internal/ctl) on the given address:
// GET /status (human table), /api/status, /api/nodes, /api/flows and
// /api/policies for live introspection, POST /api/class/* and /api/node/*
// for hitless reconfiguration — retune rates and shares, add or drain-remove
// classes, cap classes or subtrees with ceilings, swap scheduling
// policies — all without stopping the pump or losing surviving traffic:
//
//	hpfqgw ... -admin 127.0.0.1:9090 &
//	curl http://127.0.0.1:9090/status
//	curl -X POST 'http://127.0.0.1:9090/api/class/rate?id=0&rate=8e6'
//
// Failure handling: a transient upstream write error is retried up to 3
// times with capped exponential backoff (500 µs doubling to 16 ms), then the
// datagram is dropped as "retry-exhausted"; -aqm codel runs CoDel (RFC 8289,
// 5 ms target, 100 ms interval) on every class for bounded latency under
// overload; the ingress reader restarts itself after a panic.
// SIGINT/SIGTERM drains the staged backlog through the pacer for at most
// -drain before exiting (a second signal exits immediately; a repeat within
// 500 ms of the first counts as the same request).
//
// Overload control: -overload enables the pressure-and-health subsystem —
// staging occupancy, buffer-pool pressure, retry/restart rates and the pump
// heartbeat are smoothed into a pressure score driving a
// healthy → degraded → overloaded → wedged state machine with hysteresis.
// Degraded sheds the lowest-share classes first (override with -shed
// "id,id,..."); overloaded adds brownout — FEC encoding and tracing switch
// off and new client flows are refused while existing flows keep their
// service — and flips /healthz to 503 (GET /api/health serves the full
// report). -watchdog arms the pump watchdog: a heartbeat staler than the
// threshold with work queued counts as a stall, and repeated stalls trip a
// circuit breaker to wedged instead of hot-looping; panic restarts get
// capped exponential backoff and their own restart-budget breaker. A stall
// sets a write deadline on the egress, but only the -fault.* wrapper honours
// it: a write blocked in a flow's upstream socket is not interrupted.
//
// Loss resilience: -fec protects chosen classes with an erasure code
// ("0=rs-8-2,1=xor-8"; '!fec' topo clauses are the -topo spelling) — source
// datagrams are header-stamped and each block's repair datagrams ride a
// sibling repair class (id+1000) scheduled like any other leaf, so repair
// bandwidth competes under the same fairness guarantees. A downstream
// gateway run with -fec.decode unwraps the protection on ingress and
// reconstructs erased datagrams from the repairs, and reports what it
// recovered back to every locally protected class; -fec.adapt retunes each
// -fec class's geometry to the loss the decoder reports. -fec.adapt and
// -fec.blockage tune -fec classes only, and a -fec entry naming a class a
// '!fec' clause already protects is an error.
//
// Multi-core scaling: -shards N (0 = one per CPU) partitions the data plane
// into N independent engines — each with its own scheduler tree, token
// bucket, staging queues and pump over a 1/N slice of the link — so the
// engines take no cross-shard locks; the one lock every reader shares is
// the forward flow-table lookup. On Linux the gateway opens N
// SO_REUSEPORT listen sockets and the kernel's 4-tuple hash pins each flow
// to one shard; elsewhere (or if the reuseport binds fail) a single socket
// places each datagram by a consistent hash of the client endpoint. A rate
// splitter re-lends idle shards' pacing budget to backlogged ones every few
// milliseconds, keeping the aggregate link work-conserving. The admin
// surface stays whole-gateway: /api/status aggregates across shards,
// /api/shards serves the per-shard drill-down, and every mutation fans out
// to all shards.
//
// The data path is batch-oriented and allocation-free at steady state. On
// Linux each listen reader fills up to 32 buffers from the shared hpfq
// BufferPool with one recvmmsg; each egress release of up to -batch
// datagrams is split, in scheduler order, into per-flow runs, and each run
// is one sendmmsg of UDP GSO groups; each flow reads its replies with
// recvmmsg and relays them as GSO groups on the listen socket. A socket
// whose kernel refuses GSO falls back to one message per datagram.
// Elsewhere every read and write moves one datagram.
//
// The hidden -fault.* flags (seed, errors, short, drop, gilbert, latency,
// failafter, stall) inject deterministic faults into the egress path via
// internal/faultconn — -fault.gilbert "pGoodBad,pBadGood[,dropGood,dropBad]"
// switches silent drops to the bursty Gilbert–Elliott chain; -fault.stall
// "after[,dur]" blocks writes instead of erring them, the scenario the
// -watchdog machinery exists for; -fault.ingress applies the same plan to
// listen-socket reads, which the supervised reader absorbs (transient
// errors are retried, not fatal) — testing only.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hpfq"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpfqgw:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hpfqgw", flag.ExitOnError)
	var (
		listenAddr   = fs.String("listen", ":9000", "UDP address to accept client datagrams on")
		upstreamAddr = fs.String("upstream", "", "UDP address to forward paced datagrams to (required)")
		rate         = fs.Float64("rate", 10e6, "egress link rate in bits/sec")
		algo         = fs.String("algo", string(hpfq.WF2QPlus), "scheduling algorithm")
		classSpec    = fs.String("classes", "", "flat classes as id=rate,... (bits/sec)")
		topoSpec     = fs.String("topo", "", "hierarchical tree, e.g. root=1(a=3:0,b=1:1)")
		classifyName = fs.String("classify", "hash", "classifier: hash (by client address) or byte0 (first payload byte)")
		queueCap     = fs.Int("queuecap", 512, "per-class staging cap in datagrams (0 = unlimited)")
		byteCap      = fs.Int("bytecap", 0, "per-class staging cap in bytes (0 = unlimited)")
		batchSize    = fs.Int("batch", hpfq.DefaultBatchSize, "max datagrams per batched egress write")
		metrics      = fs.Bool("metrics", false, "print per-class metric tables on shutdown")
		adminAddr    = fs.String("admin", "", "HTTP admin address for live introspection and reconfiguration (e.g. 127.0.0.1:9090; empty = disabled)")
		shards       = fs.Int("shards", 1, "per-CPU data-plane shards (0 = one per CPU; >1 uses SO_REUSEPORT listeners when available, else one socket with software flow placement)")

		drain    = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline (0 = wait forever)")
		flowTTL  = fs.Duration("flowttl", defaultFlowTTL, "evict client flows idle longer than this")
		maxFlows = fs.Int("maxflows", defaultMaxFlows, "max concurrent client flows (idlest evicted first)")

		aqm = fs.String("aqm", "", "per-class AQM: codel (RFC 8289, 5 ms target, 100 ms interval; empty = off)")

		overloadOn = fs.Bool("overload", false, "enable pressure-aware overload control: priority shedding, brownout, health state on /healthz and /api/health")
		watchdog   = fs.Duration("watchdog", 0, "pump watchdog: heartbeat staleness that counts as a stall (0 = off; implies -overload machinery)")
		shedOrder  = fs.String("shed", "", "explicit overload shed order as id,id,... (front sheds first; empty = derive from shares)")

		fecSpec     = fs.String("fec", "", "FEC-protect classes as id=spec,... (e.g. 0=rs-8-2,1=xor-8); repairs ride class id+1000")
		fecAdapt    = fs.Bool("fec.adapt", false, "adapt each protected class's (k,r) to the reported loss")
		fecBlockAge = fs.Duration("fec.blockage", 0, "flush partial FEC blocks after this (0 = default, negative = never)")
		fecDecode   = fs.Bool("fec.decode", false, "decode FEC-protected ingress: unwrap sources, reconstruct erasures")

		// Fault injection (testing only; see internal/faultconn).
		faultSeed      = fs.Int64("fault.seed", 1, "fault-injection seed")
		faultErrors    = fs.Float64("fault.errors", 0, "probability of an injected transient egress error")
		faultShort     = fs.Float64("fault.short", 0, "probability of an injected short write")
		faultDrop      = fs.Float64("fault.drop", 0, "probability of silently dropping an egress datagram")
		faultGilbert   = fs.String("fault.gilbert", "", "bursty drops: Gilbert-Elliott chain pGoodBad,pBadGood[,dropGood,dropBad] (overrides -fault.drop)")
		faultLatency   = fs.Duration("fault.latency", 0, "added latency per egress write")
		faultFailAfter = fs.Uint64("fault.failafter", 0, "fail every egress write permanently after this many (0 = never)")
		faultIngress   = fs.Bool("fault.ingress", false, "apply the -fault.* plan to listen-socket reads as well")
		faultStall     = fs.String("fault.stall", "", "stall egress writes: after[,dur] — writes past the op count block for dur each (no dur = forever)")
	)
	fs.Parse(args)
	if *upstreamAddr == "" {
		return fmt.Errorf("-upstream is required")
	}
	if (*classSpec == "") == (*topoSpec == "") {
		return fmt.Errorf("exactly one of -classes or -topo is required")
	}
	for name, p := range map[string]float64{"fault.errors": *faultErrors, "fault.short": *faultShort, "fault.drop": *faultDrop} {
		if !(p >= 0 && p <= 1) { // NaN fails both
			return fmt.Errorf("-%s %g: want a probability in [0,1]", name, p)
		}
	}

	pool := hpfq.SharedBufferPool()
	opts := []hpfq.DataplaneOption{
		hpfq.WithQueueCap(*queueCap),
		hpfq.WithByteCap(*byteCap),
		hpfq.WithBatchSize(*batchSize),
		hpfq.WithBufferPool(pool),
	}
	if *metrics {
		opts = append(opts, hpfq.WithMetrics())
	}
	switch *aqm {
	case "":
	case "codel":
		opts = append(opts, hpfq.WithAQM())
	default:
		return fmt.Errorf("-aqm %q: want codel", *aqm)
	}
	if *overloadOn {
		opts = append(opts, hpfq.WithOverload())
	}
	if *watchdog > 0 {
		opts = append(opts, hpfq.WithWatchdog(*watchdog))
	}
	if *shedOrder != "" {
		ids, err := parseShedOrder(*shedOrder)
		if err != nil {
			return err
		}
		opts = append(opts, hpfq.WithShedOrder(ids...))
	}
	fecIDs, fecSpecs, err := parseFEC(*fecSpec)
	if err != nil {
		return err
	}
	if fecIDs == nil && (*fecAdapt || *fecBlockAge != 0) {
		return fmt.Errorf("-fec.adapt and -fec.blockage tune -fec classes; set -fec")
	}
	var top *hpfq.Topology
	if *topoSpec != "" {
		var err error
		if top, err = parseTopo(*topoSpec); err != nil {
			return err
		}
		opts = append(opts, hpfq.WithTopology(top))
	}
	nShards := *shards
	if nShards == 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	if nShards < 1 {
		return fmt.Errorf("-shards %d: want 0 (auto) or a positive count", *shards)
	}
	dp, err := hpfq.NewShardedDataplane(hpfq.Algorithm(*algo), *rate, nShards, opts...)
	if err != nil {
		return err
	}
	if *classSpec != "" {
		ids, rates, err := parseClasses(*classSpec)
		if err != nil {
			return err
		}
		for i, id := range ids {
			if err := dp.AddClass(id, rates[i]); err != nil {
				return err
			}
		}
	}
	for i, id := range fecIDs {
		cfg := hpfq.FECConfig{Adapt: *fecAdapt, MaxBlockAge: *fecBlockAge}
		if err := dp.ProtectClass(id, fecSpecs[i], cfg); err != nil {
			return fmt.Errorf("-fec %d: %w", id, err)
		}
	}
	classify, err := newClassifier(*classifyName, dp.Classes())
	if err != nil {
		return err
	}

	laddr, err := net.ResolveUDPAddr("udp", *listenAddr)
	if err != nil {
		return fmt.Errorf("-listen %q: %v", *listenAddr, err)
	}
	var listens []*net.UDPConn
	if nShards > 1 && reusePortAvailable {
		listens, err = listenReusePort(laddr.String(), nShards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpfqgw: %v; falling back to one socket with software flow placement\n", err)
			listens = nil
		}
	}
	if listens == nil {
		listen, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return err
		}
		listens = []*net.UDPConn{listen}
	}
	uaddr, err := net.ResolveUDPAddr("udp", *upstreamAddr)
	if err != nil {
		return fmt.Errorf("-upstream %q: %v", *upstreamAddr, err)
	}

	cfg := gwConfig{flowTTL: *flowTTL, maxFlows: *maxFlows, pool: pool,
		decodeFEC: *fecDecode}
	gilbert, err := parseGilbert(*faultGilbert)
	if err != nil {
		return err
	}
	stall, err := parseStall(*faultStall)
	if err != nil {
		return err
	}
	if *faultErrors > 0 || *faultShort > 0 || *faultDrop > 0 || gilbert != nil || *faultLatency > 0 || *faultFailAfter > 0 || stall != nil {
		cfg.fault = faultOptions(*faultSeed, *faultErrors, *faultShort, *faultDrop, gilbert, *faultLatency, *faultFailAfter, stall)
		fmt.Fprintln(os.Stderr, "hpfqgw: egress fault injection ENABLED (testing only)")
		if *faultIngress {
			// A separate wrapper instance (same plan, own seeded stream)
			// around the listen socket. Stalls are write-side only.
			cfg.ingressFault = faultOptions(*faultSeed, *faultErrors, *faultShort, *faultDrop, gilbert, *faultLatency, *faultFailAfter, nil)
			fmt.Fprintln(os.Stderr, "hpfqgw: ingress fault injection ENABLED (testing only)")
		}
	}
	gw := newGateway(dp, listens, uaddr, classify, cfg)
	if *adminAddr != "" {
		admin := hpfq.NewAdminServer(dp, hpfq.WithAdminFlows(gw.ft.snapshot))
		bound, err := admin.Start(*adminAddr)
		if err != nil {
			return err
		}
		defer admin.Close()
		fmt.Fprintf(os.Stderr, "hpfqgw: admin server on http://%s\n", bound)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go onSignals(sigs, time.Now, func() {
		fmt.Fprintf(os.Stderr, "hpfqgw: shutting down, draining (deadline %s)\n", *drain)
		if err := gw.close(*drain); err != nil {
			fmt.Fprintln(os.Stderr, "hpfqgw:", err)
		}
	}, os.Exit)

	mode := "1 socket"
	if len(listens) > 1 {
		mode = fmt.Sprintf("%d reuseport sockets", len(listens))
	}
	fmt.Fprintf(os.Stderr, "hpfqgw: %s %s → %s at %g bit/s, %d shard(s) over %s, classes %v\n",
		*algo, listens[0].LocalAddr(), *upstreamAddr, *rate, nShards, mode, dp.Classes())
	runErr := gw.run()
	closeErr := gw.close(*drain)
	if runErr == nil {
		runErr = closeErr
	}
	if n := gw.restarts.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "hpfqgw: ingress reader recovered %d panic(s)\n", n)
	}
	if n := gw.readFaults.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "hpfqgw: ingress reader absorbed %d transient read error(s)\n", n)
	}
	if *metrics {
		fmt.Println("# egress scheduler")
		if err := dp.Snapshot().WriteTable(os.Stdout); err != nil {
			return err
		}
		nodes := dp.NodeSnapshots()
		names := make([]string, 0, len(nodes))
		for name := range nodes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("# node %s\n", name)
			if err := nodes[name].WriteTable(os.Stdout); err != nil {
				return err
			}
		}
	}
	return runErr
}

// repeatGrace is how soon after the first shutdown signal a repeat counts
// as the same request: GNU timeout, for one, signals both the process and
// its process group, so the gateway receives its SIGTERM twice at once.
const repeatGrace = 500 * time.Millisecond

// onSignals runs the shutdown protocol over sigs. The first signal starts
// drain on its own goroutine; a repeat within repeatGrace of it is ignored;
// a later one calls exit(1), for an operator who will not wait for the
// drain. It returns after calling exit, or when sigs is closed.
func onSignals(sigs <-chan os.Signal, now func() time.Time, drain func(), exit func(code int)) {
	if _, ok := <-sigs; !ok {
		return
	}
	first := now()
	go drain()
	for range sigs {
		if now().Sub(first) < repeatGrace {
			continue
		}
		fmt.Fprintln(os.Stderr, "hpfqgw: second signal, exiting now")
		exit(1)
		return
	}
}
