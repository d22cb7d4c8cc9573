package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"hpfq"
)

// shardedGateway assembles a loopback gateway over an n-shard data plane
// with the given listen sockets (one = software placement, n = kernel-hash).
func shardedGateway(t *testing.T, nShards int, listens []*net.UDPConn) (gw *gateway, recv *net.UDPConn, runDone chan error) {
	t.Helper()
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, nShards, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	recv, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	gw = newGateway(dp, listens, recv.LocalAddr().(*net.UDPAddr),
		func(netip.AddrPort, []byte) int { return 0 }, gwConfig{})
	runDone = make(chan error, 1)
	go func() { runDone <- gw.run() }()
	return gw, recv, runDone
}

// forwardAndCheck pushes n datagrams from several clients through the
// gateway and verifies they all reach the upstream and that every client's
// flow is tracked with a valid shard assignment.
func forwardAndCheck(t *testing.T, gw *gateway, recv *net.UDPConn, clientTo []*net.UDPConn, nShards int) {
	t.Helper()
	const perClient = 10
	for _, c := range clientTo {
		for i := 0; i < perClient; i++ {
			if _, err := c.Write(make([]byte, 200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := perClient * len(clientTo)
	got := 0
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for ; got < want; got++ {
		if _, _, err := recv.ReadFromUDP(buf); err != nil {
			break
		}
	}
	if got < want*9/10 { // tolerate rare kernel-level loopback drops
		t.Fatalf("delivered %d/%d across shards", got, want)
	}
	if c := gw.ft.count(); c != len(clientTo) {
		t.Errorf("flow table has %d flows, want %d", c, len(clientTo))
	}
	for _, fi := range gw.ft.snapshot() {
		if fi.Shard < 0 || fi.Shard >= nShards {
			t.Errorf("flow %s assigned shard %d, want [0,%d)", fi.Client, fi.Shard, nShards)
		}
	}
}

// TestGatewayShardedReusePort runs the kernel-hash path end to end: four
// SO_REUSEPORT listeners feed four pinned shards, and every client's
// datagrams come out the paced egress regardless of which socket the kernel
// hashed its flow onto.
func TestGatewayShardedReusePort(t *testing.T) {
	if !reusePortAvailable {
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	const nShards = 4
	listens, err := listenReusePort("127.0.0.1:0", nShards)
	if err != nil {
		t.Fatal(err)
	}
	if len(listens) != nShards {
		t.Fatalf("got %d listeners, want %d", len(listens), nShards)
	}
	addr := listens[0].LocalAddr().String()
	for i, l := range listens[1:] {
		if l.LocalAddr().String() != addr {
			t.Fatalf("listener %d bound %s, want %s (shared port)", i+1, l.LocalAddr(), addr)
		}
	}
	gw, recv, runDone := shardedGateway(t, nShards, listens)

	var clients []*net.UDPConn
	for i := 0; i < 6; i++ {
		clients = append(clients, dialClient(t, listens[0]))
	}
	forwardAndCheck(t, gw, recv, clients, nShards)

	if st := gw.dp.Status(); st.Shards != nShards {
		t.Errorf("Status.Shards = %d, want %d", st.Shards, nShards)
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
		t.Fatal("sharded gateway run loop did not exit on close")
	}
	if m := gw.dp.Snapshot(); !m.Conserved() {
		t.Error("merged metrics not conserved")
	}
}

// TestGatewayShardedSingleSocket runs the portable fallback: one listen
// socket over four shards, each datagram placed by the consistent hash of
// its client endpoint. Placement must be flow-sticky — all of a client's
// datagrams land on one shard — which the flow table's recorded shard
// captures.
func TestGatewayShardedSingleSocket(t *testing.T) {
	const nShards = 4
	listen, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	gw, recv, runDone := shardedGateway(t, nShards, []*net.UDPConn{listen})

	var clients []*net.UDPConn
	for i := 0; i < 8; i++ {
		clients = append(clients, dialClient(t, listen))
	}
	forwardAndCheck(t, gw, recv, clients, nShards)

	// Flow-stickiness: the software placement must agree with the jump hash
	// for every tracked client.
	for _, fi := range gw.ft.snapshot() {
		src, err := net.ResolveUDPAddr("udp", fi.Client)
		if err != nil {
			t.Fatal(err)
		}
		if want := gw.dp.ShardOf(hpfq.FlowKeyAddr(src.IP, src.Port)); fi.Shard != want {
			t.Errorf("flow %s on shard %d, consistent hash says %d", fi.Client, fi.Shard, want)
		}
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
		t.Fatal("sharded gateway run loop did not exit on close")
	}
}
