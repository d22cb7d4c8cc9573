package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"hpfq"
	"hpfq/internal/fec"
)

func TestParseFEC(t *testing.T) {
	ids, specs, err := parseIDSpec("fec", "0=rs-8-2, 1=xor-8", hpfq.ParseFECSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 || len(specs) != 2 {
		t.Fatalf("ids = %v, %d specs", ids, len(specs))
	}
	// The specs must be applicable: protect two classes on a live engine.
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e5)
	dp.AddClass(1, 5e5)
	for i, id := range ids {
		if err := dp.ProtectClass(id, specs[i], hpfq.FECConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := dp.Status(); len(st.FEC) != 2 {
		t.Fatalf("Status.FEC = %+v, want both classes protected", st.FEC)
	}
	dp.Close()

	// An unset -fec never reaches the parser, which refuses an empty list.
	for _, bad := range []string{"", "x=rs-8-2", "0=", "0=bogus-4", "0", ",,"} {
		if _, _, err := parseIDSpec("fec", bad, hpfq.ParseFECSpec); err == nil {
			t.Errorf("fec spec %q accepted", bad)
		}
	}
}

// TestGatewayFECDecode drives the receive-side repair path: a client speaks
// the FEC wire format directly with two source datagrams withheld, and the
// decoding gateway reconstructs them from the repairs and forwards the full
// original stream upstream.
func TestGatewayFECDecode(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 5e7)
	gw, recv, listen, _ := testGateway(t, dp, gwConfig{decodeFEC: true},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)
	client := dialClient(t, listen)

	const (
		n    = 8
		size = 200
	)
	spec := hpfq.FECSpec{Scheme: hpfq.FECSchemeRS, K: 4, R: 2}
	enc, err := fec.NewEncoder(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	erased := map[int]bool{2: true, 6: true} // one per block, within r=2
	for i := 0; i < n; i++ {
		payload := make([]byte, size)
		payload[1] = byte(i)
		dst := make([]byte, fec.SourceOverhead+size)
		nn, full, err := enc.AddSource(payload, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !erased[i] {
			if _, err := client.Write(dst[:nn]); err != nil {
				t.Fatal(err)
			}
		}
		if full {
			for _, rb := range enc.Flush(func(n int) []byte { return make([]byte, n) }) {
				if _, err := client.Write(rb); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	got := map[int]bool{}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < n {
		nn, _, err := recv.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("received %d/%d distinct payloads: %v", len(got), n, err)
		}
		if nn != size {
			t.Fatalf("forwarded datagram is %d bytes, want the decoded %d", nn, size)
		}
		if hpfq.IsFECDatagram(buf[:nn]) {
			t.Fatal("gateway forwarded a raw FEC datagram instead of decoding it")
		}
		got[int(buf[1])] = true
	}
	for i := 0; i < n; i++ {
		if !got[i] {
			t.Errorf("payload %d missing (erased: %v)", i, erased[i])
		}
	}
}

// TestGatewayFECFeedbackTopo: on a -topo gateway whose protection comes
// from a '!fec' clause, the -fec.decode receive side reports what it
// recovered to the engine's protected class, so the recovered count lands
// in the metrics.
func TestGatewayFECFeedbackTopo(t *testing.T) {
	top, err := hpfq.ParseTopology("root=1(a=1!rs-4-2:0,b=1:1)")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics(), hpfq.WithTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	gw, recv, listen, _ := testGateway(t, dp, gwConfig{decodeFEC: true},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gw.close(time.Second)
	client := dialClient(t, listen)

	// 32 blocks of RS(4,2) with one source erased per block: 160 FEC
	// datagrams arrive, past the decoder's 64-datagram feedback cadence.
	const (
		n    = 128
		size = 200
	)
	enc, err := fec.NewEncoder(0, hpfq.FECSpec{Scheme: hpfq.FECSchemeRS, K: 4, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		payload := make([]byte, size)
		payload[1] = byte(i)
		dst := make([]byte, fec.SourceOverhead+size)
		nn, full, err := enc.AddSource(payload, dst)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 != 1 {
			if _, err := client.Write(dst[:nn]); err != nil {
				t.Fatal(err)
			}
		}
		if full {
			for _, rb := range enc.Flush(func(n int) []byte { return make([]byte, n) }) {
				if _, err := client.Write(rb); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(time.Millisecond) // keep the loopback socket buffer from overflowing
		}
	}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for got := 0; got < n; got++ {
		if _, _, err := recv.ReadFromUDP(buf); err != nil {
			t.Fatalf("received %d/%d payloads: %v", got, n, err)
		}
	}
	if m := dp.Snapshot(); m.FECRecovered == 0 {
		t.Fatalf("FECRecovered = 0 after %d reconstructed datagrams, want the decoder's feedback counted", n/4)
	}
}

// TestGatewayFECChain is the two-box deployment from the README: an encoding
// gateway protects class 0 on its paced egress, a decoding gateway on the
// far side strips the FEC layer, and applications on both ends see plain
// datagrams.
func TestGatewayFECChain(t *testing.T) {
	// Far side: decode-enabled gateway in front of the receiver.
	dpB, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1)
	if err != nil {
		t.Fatal(err)
	}
	dpB.AddClass(0, 5e7)
	gwB, recv, listenB, _ := testGateway(t, dpB, gwConfig{decodeFEC: true},
		func(netip.AddrPort, []byte) int { return 0 })
	defer gwB.close(time.Second)

	// Near side: FEC-encoding gateway whose upstream is the far gateway.
	spec := hpfq.FECSpec{Scheme: hpfq.FECSchemeRS, K: 4, R: 2}
	dpA, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dpA.AddClass(0, 5e7)
	if err := dpA.ProtectClass(0, spec, hpfq.FECConfig{}); err != nil {
		t.Fatal(err)
	}
	listenA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	gwA := newGateway(dpA, []*net.UDPConn{listenA}, listenB.LocalAddr().(*net.UDPAddr),
		func(netip.AddrPort, []byte) int { return 0 }, gwConfig{})
	runA := make(chan error, 1)
	go func() { runA <- gwA.run() }()
	defer gwA.close(time.Second)

	client := dialClient(t, listenA)
	const (
		n    = 16 // multiple of k: every block completes and flushes
		size = 300
	)
	for i := 0; i < n; i++ {
		b := make([]byte, size)
		b[1] = byte(i)
		if _, err := client.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	got := map[int]bool{}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < n {
		nn, _, err := recv.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("received %d/%d payloads: %v", len(got), n, err)
		}
		if hpfq.IsFECDatagram(buf[:nn]) {
			t.Fatal("FEC datagram leaked past the decoding gateway")
		}
		if nn != size {
			t.Fatalf("delivered %d bytes, want the original %d", nn, size)
		}
		got[int(buf[1])] = true
	}
	if m := dpA.Snapshot(); m.FECEncoded != n || m.FECRepairSent != int64((n/spec.K)*spec.R) {
		t.Errorf("encoding gateway: FECEncoded=%d FECRepairSent=%d, want %d/%d",
			m.FECEncoded, m.FECRepairSent, n, (n/spec.K)*spec.R)
	}
}
