package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfq"
	"hpfq/internal/faultconn"
	"hpfq/internal/udpio"
)

func TestParseClasses(t *testing.T) {
	ids, rates, err := parseIDSpec("class", "0=7.5e6, 1=2.5e6", parseRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("ids = %v", ids)
	}
	if rates[0] != 7.5e6 || rates[1] != 2.5e6 {
		t.Fatalf("rates = %v", rates)
	}
	for _, bad := range []string{"", "x=1e6", "0=", "0=-5", "0"} {
		if _, _, err := parseIDSpec("class", bad, parseRate); err == nil {
			t.Errorf("class spec %q accepted", bad)
		}
	}
}

// TestParseTopo: -topo is hpfq.ParseTopology's grammar, and the tree it
// parses drives a hierarchical data plane.
func TestParseTopo(t *testing.T) {
	top, err := hpfq.ParseTopology("root=1(agg=3(a=2:0,b=1:1),c=1:2)")
	if err != nil {
		t.Fatal(err)
	}
	// The tree must be usable: drive a hierarchical data-plane with it.
	d, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 1e6, 1, hpfq.WithTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Classes()); got != 3 {
		t.Fatalf("leaves = %d, want 3", got)
	}

	for _, bad := range []string{
		"",
		"root",
		"root=x(a=1:0)",
		"root=1",
		"root=1(a=1:0",
		"root=1(a=1:0)x",
		"root=1(a=1:bad)",
		"root=1(a=0:0)",
		"=1(a=1:0)",
	} {
		if _, err := hpfq.ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestClassifiers(t *testing.T) {
	classes := []int{3, 1, 2}
	byByte, err := newClassifier("byte0", classes)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted class list: byte 0 → class 1, byte 1 → class 2, byte 2 → 3.
	if got := byByte(netip.AddrPort{}, []byte{0}); got != 1 {
		t.Errorf("byte0(0) = %d, want 1", got)
	}
	if got := byByte(netip.AddrPort{}, []byte{2}); got != 3 {
		t.Errorf("byte0(2) = %d, want 3", got)
	}

	byHash, err := newClassifier("hash", classes)
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("127.0.0.1:4242")
	first := byHash(src, nil)
	for i := 0; i < 10; i++ {
		if got := byHash(src, nil); got != first {
			t.Fatalf("hash classifier not sticky: %d then %d", first, got)
		}
	}

	if _, err := newClassifier("nope", classes); err == nil {
		t.Error("unknown classifier accepted")
	}
	if _, err := newClassifier("hash", nil); err == nil {
		t.Error("empty class list accepted")
	}
}

// TestHashClassifierSharesShardKey: the hash classifier and software shard
// placement read one key. The v4 and v4-mapped forms of an endpoint get the
// same class and shard, and over many loopback endpoints every (shard,
// class) pair is reached about equally — the two choices are not
// correlated.
func TestHashClassifierSharesShardKey(t *testing.T) {
	const nShards, nClasses, nEndpoints = 4, 4, 1000
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 4e6, nShards)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	for c := 0; c < nClasses; c++ {
		dp.AddClass(c, 1e6)
	}
	byHash, err := newClassifier("hash", dp.Classes())
	if err != nil {
		t.Fatal(err)
	}

	v4 := netip.MustParseAddrPort("10.1.2.3:4242")
	mapped := netip.AddrPortFrom(netip.AddrFrom16(v4.Addr().As16()), v4.Port())
	if byHash(v4, nil) != byHash(mapped, nil) {
		t.Errorf("v4 and v4-mapped forms of %v get different classes", v4)
	}
	if dp.ShardOf(flowKey(v4)) != dp.ShardOf(flowKey(mapped)) {
		t.Errorf("v4 and v4-mapped forms of %v land on different shards", v4)
	}

	var pairs [nShards][nClasses]int
	for i := 0; i < nEndpoints; i++ {
		ep := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(20000+i))
		pairs[dp.ShardOf(flowKey(ep))][byHash(ep, nil)]++
	}
	const ideal = nEndpoints / (nShards * nClasses)
	for s := range pairs {
		for c, n := range pairs[s] {
			if n < ideal/2 {
				t.Errorf("(shard %d, class %d) reached by %d of %d endpoints, want >= %d: %v",
					s, c, n, nEndpoints, ideal/2, pairs)
			}
		}
	}
}

// TestForwardPathAllocFree: the gateway's forward-path bookkeeping — a
// batched listen-socket read (recvmmsg into the pooled ingress batch), each
// sender decoded, the brownout probe, a flow-table hit and both
// classifiers — allocates nothing per datagram once the batch has grown.
func TestForwardPathAllocFree(t *testing.T) {
	recv, listen := loopbackUDP(t), loopbackUDP(t)
	ft := newFlowTable(listen, recv.LocalAddr().(*net.UDPAddr), 0, 0)
	defer ft.close()
	classes := []int{0, 1, 2, 3}
	byByte, _ := newClassifier("byte0", classes)
	byHash, _ := newClassifier("hash", classes)

	client := dialClient(t, listen)
	payload := make([]byte, 64)
	src := udpio.NewSocket(listen).NewReader()
	batch := newRxBatch(hpfq.SharedBufferPool(), maxIngressBatch)
	listen.SetReadDeadline(time.Now().Add(10 * time.Second))
	const burst = 8
	var failed error
	// forwardBurst sends burst datagrams and runs each through the
	// bookkeeping as the ingress loop does.
	forwardBurst := func() {
		for i := 0; i < burst; i++ {
			if _, err := client.Write(payload); err != nil {
				failed = err
				return
			}
		}
		for got := 0; got < burst; {
			n, err := batch.read(src)
			if err != nil {
				failed = err
				return
			}
			for i := 0; i < n; i++ {
				from := src.Source(i)
				if !ft.has(from) {
					failed = errors.New("flow missing")
					return
				}
				if _, err := ft.lookup(from, 0); err != nil {
					failed = err
					return
				}
				byByte(from, batch.view[i])
				byHash(from, batch.view[i])
			}
			got += n
		}
	}
	if _, err := client.Write(payload); err != nil { // creates the flow
		t.Fatal(err)
	}
	if _, err := batch.read(src); err != nil {
		t.Fatal(err)
	}
	if _, err := ft.lookup(src.Source(0), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // grow the batch to its steady width
		forwardBurst()
	}
	allocs := testing.AllocsPerRun(100, forwardBurst)
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("forward-path bookkeeping allocates %.2f times per datagram, want 0", allocs/burst)
	}
	if c := ft.count(); c != 1 {
		t.Fatalf("flow table has %d flows, want 1", c)
	}
}

// TestReturnPathAllocFree: relaying replies — a recvmmsg batch off a flow's
// upstream socket, relayed to its client as GSO groups on the listen
// socket — allocates nothing per datagram once the batch has grown.
func TestReturnPathAllocFree(t *testing.T) {
	upstream, listen := loopbackUDP(t), loopbackUDP(t)
	ft := newFlowTable(listen, upstream.LocalAddr().(*net.UDPAddr), 0, 0)
	defer ft.close()
	client := dialClient(t, listen)
	conn, err := net.DialUDP("udp", nil, upstream.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := &flow{client: client.LocalAddr().(*net.UDPAddr).AddrPort(), conn: conn}
	flowAddr := conn.LocalAddr().(*net.UDPAddr).AddrPort()

	rd, wr := f.socket().NewReader(), udpio.NewWriter()
	batch := newRxBatch(hpfq.SharedBufferPool(), maxReturnBatch)
	reply, in := make([]byte, 64), make([]byte, 2048)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	const burst = 8
	var failed error
	relayBurst := func() {
		for i := 0; i < burst; i++ {
			reply[0] = byte(i)
			if _, err := upstream.WriteToUDPAddrPort(reply, flowAddr); err != nil {
				failed = err
				return
			}
		}
		for got := 0; got < burst; {
			n, err := batch.read(rd)
			if err != nil {
				failed = err
				return
			}
			ft.relay(wr, f.client, batch.view[:n])
			got += n
		}
		for i := 0; i < burst; i++ {
			if n, err := client.Read(in); err != nil || n != len(reply) || in[0] != byte(i) {
				failed = fmt.Errorf("relayed reply %d: %d bytes, first %d, %v", i, n, in[0], err)
				return
			}
		}
	}
	for i := 0; i < 4; i++ { // grow the batch to its steady width
		relayBurst()
	}
	allocs := testing.AllocsPerRun(100, relayBurst)
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("the return path allocates %.2f times per datagram, want 0", allocs/burst)
	}
}

// testGateway assembles a loopback gateway: an upstream receiver socket, a
// listen socket, and a started gateway forwarding between them. Callers get
// the pieces plus a cleanup-checked run-exit channel.
func testGateway(t *testing.T, dp *hpfq.ShardedDataplane, cfg gwConfig, classify classifier) (gw *gateway, recv, listen *net.UDPConn, runDone chan error) {
	t.Helper()
	recv, listen = loopbackUDP(t), loopbackUDP(t)
	gw = newGateway(dp, []*net.UDPConn{listen}, recv.LocalAddr().(*net.UDPAddr), classify, cfg)
	runDone = make(chan error, 1)
	go func() { runDone <- gw.run() }()
	return gw, recv, listen, runDone
}

// loopbackUDP opens a UDP socket on an ephemeral loopback port, closed at
// test cleanup.
func loopbackUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func dialClient(t *testing.T, listen *net.UDPConn) *net.UDPConn {
	t.Helper()
	client, err := net.DialUDP("udp", nil, listen.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestGatewayForwards runs the whole binary's data path over loopback:
// client → gateway listen socket → classify → paced WF²Q+ egress → per-flow
// upstream socket → upstream receiver, plus the reply relay back through the
// flow table to the client.
func TestGatewayForwards(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 4e7)
	dp.AddClass(1, 1e7)
	classify, err := newClassifier("byte0", dp.Classes())
	if err != nil {
		t.Fatal(err)
	}
	gw, recv, listen, runDone := testGateway(t, dp, gwConfig{}, classify)
	client := dialClient(t, listen)

	const n = 40
	for i := 0; i < n; i++ {
		b := make([]byte, 300)
		b[0] = byte(i % 2)
		if _, err := client.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]int{}
	var flowAddr *net.UDPAddr
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for total := 0; total < n; total++ {
		nn, src, err := recv.ReadFromUDP(buf)
		if err != nil {
			if total >= n*9/10 { // tolerate rare kernel-level loopback drops
				break
			}
			t.Fatalf("received %d/%d: %v", total, n, err)
		}
		if nn != 300 {
			t.Fatalf("datagram length %d, want 300", nn)
		}
		got[int(buf[0])]++
		flowAddr = src
	}
	if got[0] == 0 || got[1] == 0 {
		t.Errorf("per-class counts %v, want both classes", got)
	}
	if c := gw.ft.count(); c != 1 {
		t.Errorf("flow table has %d flows, want 1 (one client)", c)
	}

	// Return path: a reply sent to the client's flow socket reaches the
	// client.
	if _, err := recv.WriteToUDP([]byte("pong"), flowAddr); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	nn, err := client.Read(buf)
	if err != nil {
		t.Fatalf("return path: %v", err)
	}
	if string(buf[:nn]) != "pong" {
		t.Fatalf("return path payload %q", buf[:nn])
	}

	if err := gw.close(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gateway run loop did not exit on close")
	}
	if m := dp.Snapshot(); !m.Conserved() {
		t.Error("metrics not conserved")
	}
}

// TestGatewayMultiClientReturnPath: the flow table must route each upstream
// reply to the client that owns the flow — the regression the NAT-style
// table fixes over the old last-client-wins relay.
func TestGatewayMultiClientReturnPath(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	gw, recv, listen, _ := testGateway(t, dp, gwConfig{},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)

	// An upstream echo server: replies "re:"+payload to whichever flow
	// socket sent it.
	go func() {
		buf := make([]byte, 2048)
		for {
			n, src, err := recv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			recv.WriteToUDP(append([]byte("re:"), buf[:n]...), src)
		}
	}()

	clients := []*net.UDPConn{dialClient(t, listen), dialClient(t, listen), dialClient(t, listen)}
	// Interleave sends so a last-client-wins relay would misroute most
	// replies; with per-flow sockets each client gets exactly its own.
	for round := 0; round < 3; round++ {
		for i, c := range clients {
			msg := []byte{byte('a' + i), byte('0' + round)}
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, c := range clients {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		for round := 0; round < 3; round++ {
			n, err := c.Read(buf)
			if err != nil {
				t.Fatalf("client %d reply %d: %v", i, round, err)
			}
			if n != 5 || buf[0] != 'r' || buf[3] != byte('a'+i) {
				t.Fatalf("client %d got reply %q, want its own echo", i, buf[:n])
			}
		}
	}
	if c := gw.ft.count(); c != len(clients) {
		t.Errorf("flow table has %d flows, want %d", c, len(clients))
	}
}

// TestFlowTTLEviction: idle flows are evicted after the TTL and their
// return-path readers exit.
func TestFlowTTLEviction(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	gw, _, listen, _ := testGateway(t, dp, gwConfig{flowTTL: 50 * time.Millisecond},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)

	client := dialClient(t, listen)
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.ft.count() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("flow never created")
		}
		time.Sleep(time.Millisecond)
	}
	for gw.ft.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle flow not evicted; table has %d", gw.ft.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlowLivenessBothDirections: activity in either direction keeps a
// flow alive. One client keeps sending; the other stays silent while the
// upstream keeps replying to it. Both flows outlive several TTLs. Once the
// upstream stops, the silent flow is retired, no sooner than the TTL after
// its last reply, and the sender's flow stays.
func TestFlowLivenessBothDirections(t *testing.T) {
	const ttl = 200 * time.Millisecond
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	gw, recv, listen, _ := testGateway(t, dp, gwConfig{flowTTL: ttl},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)

	sender, silent := dialClient(t, listen), dialClient(t, listen)
	if _, err := sender.Write([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if _, err := silent.Write([]byte("q")); err != nil {
		t.Fatal(err)
	}
	// The upstream learns the silent client's flow socket from its one
	// datagram.
	var silentFlow *net.UDPAddr
	buf := make([]byte, 64)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for silentFlow == nil {
		n, from, err := recv.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 && buf[0] == 'q' {
			silentFlow = from
		}
	}

	// Both directions stay busy for 6 TTLs; the table is checked once per
	// TTL, each check well inside a TTL of the last datagram either way.
	start := time.Now()
	var lastReply time.Time
	for checks := 1; checks <= 6; {
		if _, err := sender.Write([]byte("s")); err != nil {
			t.Fatal(err)
		}
		if _, err := recv.WriteToUDP([]byte("r"), silentFlow); err != nil {
			t.Fatal(err)
		}
		lastReply = time.Now()
		time.Sleep(5 * time.Millisecond)
		if time.Since(start) >= time.Duration(checks)*ttl {
			if c := gw.ft.count(); c != 2 {
				t.Fatalf("table has %d flows while both are active, want 2", c)
			}
			checks++
		}
	}

	// The upstream goes quiet; the sender keeps going. Only the silent
	// flow may leave.
	deadline := time.Now().Add(5 * time.Second)
	for gw.ft.count() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("silent flow not retired; table has %d", gw.ft.count())
		}
		if _, err := sender.Write([]byte("s")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if idle := time.Since(lastReply); idle < ttl {
		t.Fatalf("silent flow retired %v after its last reply, sooner than the %v TTL", idle, ttl)
	}
	flows := gw.ft.snapshot()
	if len(flows) != 1 || flows[0].Client != sender.LocalAddr().String() {
		t.Fatalf("surviving flows %+v, want only the sender %s", flows, sender.LocalAddr())
	}
}

// TestFlowSurvivesRefusedUpstream: a flow whose upstream port is closed
// reads ICMP port-unreachable errors on its socket. Its return path keeps
// reading, so replies flow again once the upstream is back on the same
// port, through the same flow socket; and once the client goes quiet the
// flow leaves the table no sooner than the TTL after its last datagram.
func TestFlowSurvivesRefusedUpstream(t *testing.T) {
	const ttl = 500 * time.Millisecond
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	gw, recv, listen, _ := testGateway(t, dp, gwConfig{flowTTL: ttl},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)
	upstream := recv.LocalAddr().(*net.UDPAddr)
	recv.Close()

	client := dialClient(t, listen)
	send := func(b string) time.Time {
		t.Helper()
		if _, err := client.Write([]byte(b)); err != nil {
			t.Fatal(err)
		}
		return time.Now()
	}
	// Each datagram reaches the closed port and draws a refusal, which
	// the flow's return path reads while blocked on its socket.
	for _, b := range []string{"a", "b", "c"} {
		send(b)
		time.Sleep(20 * time.Millisecond)
	}
	flows := gw.ft.snapshot()
	if len(flows) != 1 {
		t.Fatalf("table has %d flows after refused sends, want 1", len(flows))
	}

	// The upstream comes back on its port and echoes.
	up, err := net.ListenUDP("udp", upstream)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			n, from, err := up.ReadFromUDP(buf)
			if err != nil {
				return
			}
			up.WriteToUDP(buf[:n], from)
		}
	}()
	send("d")
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, err := client.Read(buf); err != nil || string(buf[:n]) != "d" {
		t.Fatalf("reply after the upstream returned: %q, %v", buf[:n], err)
	}
	if now := gw.ft.snapshot(); len(now) != 1 || now[0].LocalAddr != flows[0].LocalAddr {
		t.Fatalf("flows %+v after the upstream returned, want the same flow socket %s", now, flows[0].LocalAddr)
	}

	// The upstream goes down again, the client sends once more and then
	// goes quiet: the flow is retired on its TTL.
	up.Close()
	last := send("e")
	deadline := time.Now().Add(5 * time.Second)
	for gw.ft.count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flow with a refused upstream not retired; table has %d", gw.ft.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if idle := time.Since(last); idle < ttl {
		t.Fatalf("flow retired %v after its last datagram, sooner than the %v TTL", idle, ttl)
	}
}

// TestFlowTableChurn: forward lookups, brownout probes and snapshots race
// against flows retiring themselves on a 1 ms TTL and against capacity
// eviction; close then ends every flow and waits for every return path.
func TestFlowTableChurn(t *testing.T) {
	recv, listen := loopbackUDP(t), loopbackUDP(t)
	ft := newFlowTable(listen, recv.LocalAddr().(*net.UDPAddr), time.Millisecond, 4)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(30000+(g+i)%6))
				ft.has(src)
				f, err := ft.lookup(src, g)
				if err != nil {
					t.Error(err)
					return
				}
				if f.client != src {
					t.Errorf("lookup(%v) returned the flow of %v", src, f.client)
				}
				if i%16 == 0 {
					ft.snapshot()
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if c := ft.count(); c > 4 {
		t.Errorf("table holds %d flows, over its capacity of 4", c)
	}
	ft.close()
	if c := ft.count(); c != 0 {
		t.Errorf("closed table holds %d flows", c)
	}
	if _, err := ft.lookup(netip.MustParseAddrPort("127.0.0.1:1"), 0); !errors.Is(err, net.ErrClosed) {
		t.Errorf("lookup on a closed table: %v, want net.ErrClosed", err)
	}
}

// TestFlowTableMaxFlows: at capacity the idlest flow is evicted to admit a
// new client.
func TestFlowTableMaxFlows(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	gw, _, listen, _ := testGateway(t, dp, gwConfig{maxFlows: 2},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)

	deadline := time.Now().Add(5 * time.Second)
	var clients []*net.UDPConn
	for i := 0; i < 3; i++ {
		client := dialClient(t, listen)
		clients = append(clients, client)
		if _, err := client.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		if want > 2 {
			want = 2
		}
		for gw.ft.count() != want {
			if time.Now().After(deadline) {
				t.Fatalf("after client %d: table has %d flows, want %d", i, gw.ft.count(), want)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * time.Millisecond) // order the flows' last-seen times
	}

	// The victim is the idlest flow: client 0's.
	have := map[string]bool{}
	for _, fi := range gw.ft.snapshot() {
		have[fi.Client] = true
	}
	for i, c := range clients {
		got, want := have[c.LocalAddr().String()], i > 0
		if got != want {
			t.Errorf("client %d tracked = %v, want %v (flows %v)", i, got, want, have)
		}
	}
}

// TestGatewayReaderPanicRestart: a classifier panic on a hostile payload
// costs that datagram only — the supervisor restarts the ingress loop,
// counts the restart, and later traffic still flows.
func TestGatewayReaderPanicRestart(t *testing.T) {
	prevOut := errOut
	errOut = io.Discard // the recovered panic is expected noise here
	defer func() { errOut = prevOut }()

	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	classify := func(_ netip.AddrPort, payload []byte) int {
		if payload[0] == 0xFF {
			panic("hostile payload")
		}
		return 0
	}
	gw, recv, listen, runDone := testGateway(t, dp, gwConfig{}, classify)
	client := dialClient(t, listen)

	if _, err := client.Write([]byte{0xFF, 1, 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.restarts.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("ingress reader never restarted after the panic")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := client.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := recv.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("no forwarding after restart: %v", err)
	}
	if string(buf[:n]) != "after" {
		t.Fatalf("forwarded %q after restart, want %q", buf[:n], "after")
	}

	if err := gw.close(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gateway run loop did not exit on close")
	}
}

// TestGatewayDrainDeadline: a backlog the link cannot flush in time must not
// hold shutdown hostage — close returns the deadline error once the drain
// window expires.
func TestGatewayDrainDeadline(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 1000, 1) // 1 kbit/s: ~1.6s per datagram
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 1000)
	gw, _, listen, _ := testGateway(t, dp, gwConfig{},
		func(netip.AddrPort, []byte) int { return 0 })
	client := dialClient(t, listen)

	for i := 0; i < 50; i++ {
		if _, err := client.Write(make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for dp.Backlog() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never built: %d", dp.Backlog())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	err = gw.close(100 * time.Millisecond)
	if err == nil {
		t.Fatal("close returned nil despite an undrainable backlog")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("close took %s, want ~100ms drain deadline", elapsed)
	}
	if !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("close error %q, want drain-deadline message", err)
	}
}

// TestGatewayFaultInjectionDelivers wires gwConfig.fault end to end: with
// a transient fault on every third egress write — never two in a row, so
// the engine's retry budget always suffices — retry/backoff still delivers
// every datagram to the upstream and none exhausts its retries.
func TestGatewayFaultInjectionDelivers(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	cfg := gwConfig{fault: []faultconn.Option{faultconn.WithErrorEvery(3)}}
	gw, recv, listen, _ := testGateway(t, dp, cfg,
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)
	client := dialClient(t, listen)

	const n = 40
	for i := 0; i < n; i++ {
		if _, err := client.Write([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	buf := make([]byte, 64)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for ; got < n; got++ {
		if _, _, err := recv.ReadFromUDP(buf); err != nil {
			break
		}
	}
	if got < n*9/10 { // tolerate rare kernel-level loopback drops
		t.Fatalf("delivered %d/%d through the fault plan", got, n)
	}
	m := dp.Snapshot()
	if m.Retried.Packets == 0 {
		t.Error("fault plan injected no retries; the test is vacuous")
	}
	if got := m.DropReasons[hpfq.DropRetries].Packets; got != 0 {
		t.Errorf("%d datagrams exhausted their retries under a plan that never fails twice in a row", got)
	}
}

// TestGatewayIngressFaultTolerated wires gwConfig.ingressFault: with
// seeded transient faults on ~30% of listen-socket reads, the supervised
// ingress loop absorbs every injected error — no datagram is consumed by a
// fault (the error fires before the socket is touched), so everything sent
// still reaches the upstream, and no restart is charged (transient ≠ panic).
func TestGatewayIngressFaultTolerated(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	cfg := gwConfig{ingressFault: []faultconn.Option{faultconn.WithSeed(7), faultconn.WithErrorRate(0.3)}}
	gw, recv, listen, runDone := testGateway(t, dp, cfg,
		func(netip.AddrPort, []byte) int { return 0 })
	client := dialClient(t, listen)

	const n = 40
	for i := 0; i < n; i++ {
		if _, err := client.Write([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	buf := make([]byte, 64)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for ; got < n; got++ {
		if _, _, err := recv.ReadFromUDP(buf); err != nil {
			break
		}
	}
	if got < n*9/10 { // tolerate rare kernel-level loopback drops
		t.Fatalf("delivered %d/%d through the ingress fault plan", got, n)
	}
	if gw.readFaults.Load() == 0 {
		t.Error("ingress fault plan injected no read errors; the test is vacuous")
	}
	if r := gw.restarts.Load(); r != 0 {
		t.Errorf("transient read errors charged %d restart(s), want 0", r)
	}

	if err := gw.close(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gateway run loop did not exit on close")
	}
	if m := dp.Snapshot(); m.BatchWrites == 0 {
		t.Error("gateway egress recorded no batched writes")
	} else if m.BatchedPackets != m.Dequeued.Packets {
		t.Errorf("batched packets %d != dequeued %d (faultless egress should write everything)",
			m.BatchedPackets, m.Dequeued.Packets)
	}
}

// TestEgressBatchGrouping drives egress.WriteBatch directly: a mixed-flow
// batch must be split into consecutive same-flow runs, each run written to
// its own flow socket in scheduler order, and a datagram with no flow must
// stop the batch with errNoFlow after reporting the delivered prefix.
func TestEgressBatchGrouping(t *testing.T) {
	newSink := func() (*net.UDPConn, *flow) {
		t.Helper()
		r, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		c, err := net.DialUDP("udp", nil, r.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return r, &flow{conn: c}
	}
	recvA, fa := newSink()
	recvB, fb := newSink()

	e := newEgress(nil)
	pkts := []hpfq.PacketDatagram{
		{B: []byte("a1"), Ctx: fa},
		{B: []byte("a2"), Ctx: fa},
		{B: []byte("b1"), Ctx: fb},
		{B: []byte("a3"), Ctx: fa},
	}
	n, err := e.WriteBatch(pkts)
	if n != len(pkts) || err != nil {
		t.Fatalf("WriteBatch = (%d, %v), want (%d, nil)", n, err, len(pkts))
	}
	drain := func(conn *net.UDPConn, want ...string) {
		t.Helper()
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for _, w := range want {
			nn, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("waiting for %q: %v", w, err)
			}
			if string(buf[:nn]) != w {
				t.Fatalf("got %q, want %q (run order must follow the schedule)", buf[:nn], w)
			}
		}
	}
	drain(recvA, "a1", "a2", "a3")
	drain(recvB, "b1")

	// A flowless datagram mid-batch: the prefix is delivered and reported,
	// the error is fatal (not transient) so the pump drops, never retries.
	n, err = e.WriteBatch([]hpfq.PacketDatagram{
		{B: []byte("ok"), Ctx: fa},
		{B: []byte("lost"), Ctx: nil},
	})
	if n != 1 || err != errNoFlow {
		t.Fatalf("flowless WriteBatch = (%d, %v), want (1, errNoFlow)", n, err)
	}
	if hpfq.IsTransientIOError(err) {
		t.Error("errNoFlow classified transient; retries would spin on it")
	}
	drain(recvA, "ok")
}

// TestEgressPinsWriteDeadline: the pump watchdog's deadline reaches the
// flow sockets. Pinned in the past, it fails a run on a real flow socket at
// once with os.ErrDeadlineExceeded, which the data plane retries as
// transient; released, the same socket writes again.
func TestEgressPinsWriteDeadline(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	c, err := net.DialUDP("udp", nil, recv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := &flow{conn: c}
	e := newEgress(nil)
	run := []hpfq.PacketDatagram{{B: []byte("x"), Ctx: f}}

	if n, err := e.WriteBatch(run); n != 1 || err != nil {
		t.Fatalf("unpinned WriteBatch = (%d, %v), want (1, nil)", n, err)
	}
	if err := e.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := e.WriteBatch(run)
	if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("pinned WriteBatch = (%d, %v), want (0, deadline exceeded)", n, err)
	}
	if !hpfq.IsTransientIOError(err) {
		t.Errorf("deadline error %v not transient; the pump would drop instead of retrying", err)
	}
	if err := e.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n, err := e.WriteBatch(run); n != 1 || err != nil {
		t.Fatalf("released WriteBatch = (%d, %v), want (1, nil)", n, err)
	}
	buf := make([]byte, 8)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		if _, err := recv.Read(buf); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
	}
}

// TestEgressDeadlineConcurrent pins and releases the write deadline from
// a second goroutine, as the overload monitor does, while the pump's
// goroutine writes runs: every write either succeeds or fails with the
// deadline, and the race detector sees the two sides synchronized.
func TestEgressDeadlineConcurrent(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	c, err := net.DialUDP("udp", nil, recv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := newEgress(nil)
	run := []hpfq.PacketDatagram{{B: []byte("x"), Ctx: &flow{conn: c}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			e.SetWriteDeadline(time.Now().Add(-time.Second))
			e.SetWriteDeadline(time.Time{})
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := e.WriteBatch(run); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	<-done
	if n, err := e.WriteBatch(run); n != 1 || err != nil {
		t.Fatalf("after release: WriteBatch = (%d, %v), want (1, nil)", n, err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                           // missing -upstream
		{"-upstream", "127.0.0.1:9"}, // neither -classes nor -topo
		{"-upstream", "127.0.0.1:9", "-classes", "0=1e6", "-topo", "r=1(a=1:0)"}, // both
		{"-upstream", "127.0.0.1:9", "-classes", "bogus"},
		{"-upstream", "127.0.0.1:9", "-topo", "bogus"},
		{"-upstream", "127.0.0.1:9", "-classes", "0=1e6", "-algo", "nope"},
		{"-upstream", "127.0.0.1:9", "-classes", "0=1e6", "-classify", "nope"},
		{"-upstream", "127.0.0.1:9", "-classes", "0=1e6", "-listen", "not-an-addr:x:y"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRefusesNegativeCaps: a negative -queuecap or -bytecap would read
// as unlimited and run with no bound at all; run fails instead, naming the
// cap.
func TestRunRefusesNegativeCaps(t *testing.T) {
	for flag, name := range map[string]string{"-queuecap": "QueueCap", "-bytecap": "ByteCap"} {
		err := run([]string{"-upstream", "127.0.0.1:9", "-classes", "0=1e6", flag, "-1"})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("run with %s -1 = %v, want an error naming the %s", flag, err, name)
		}
	}
}
