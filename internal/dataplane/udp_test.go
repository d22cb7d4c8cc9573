package dataplane

import (
	"net"
	"testing"
	"time"
)

// connWriter writes each datagram to a connected UDP socket.
type connWriter struct{ c *net.UDPConn }

func (w connWriter) WritePacket(b []byte) (int, error) { return w.c.Write(b) }

func (w connWriter) WriteBatch(pkts []Datagram) (int, error) { return writeEach(w, pkts) }

// TestUDPEndToEnd runs the full pipeline over real loopback sockets:
// client socket → ingress socket → a read loop calling Ingest (classify on
// the first payload byte) → WF²Q+ pacing → connected egress socket →
// receiver socket.
func TestUDPEndToEnd(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	ingress, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ingress.Close()
	egress, err := net.DialUDP("udp", nil, recv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer egress.Close()
	client, err := net.DialUDP("udp", nil, ingress.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	d, err := New("WF2Q+", 5e7, WithMetrics()) // 50 Mbps
	if err != nil {
		t.Fatal(err)
	}
	d.AddClass(0, 4e7)
	d.AddClass(1, 1e7)
	if err := d.Start(connWriter{egress}); err != nil {
		t.Fatal(err)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, MaxDatagramSize)
		for {
			n, err := ingress.Read(buf)
			if err != nil {
				return // the socket closed
			}
			b := append([]byte(nil), buf[:n]...)
			d.Ingest(int(b[0]), b) // refusals are recorded in the metrics
		}
	}()

	const n = 60
	for i := 0; i < n; i++ {
		b := make([]byte, 500)
		b[0] = byte(i % 2)
		b[1] = byte(i)
		if _, err := client.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	got := map[int]int{}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for total := 0; total < n; total++ {
		nn, err := recv.Read(buf)
		if err != nil {
			// Loopback UDP is lossless in practice, but a kernel drop under
			// load is not a scheduler bug; require most datagrams through.
			if total >= n*9/10 {
				break
			}
			t.Fatalf("received only %d/%d datagrams: %v", total, n, err)
		}
		if nn != 500 {
			t.Fatalf("datagram length %d, want 500 (message boundary lost)", nn)
		}
		got[int(buf[0])]++
	}
	if got[0] == 0 || got[1] == 0 {
		t.Errorf("per-class receive counts %v, want both classes present", got)
	}

	ingress.Close() // ends the read loop
	select {
	case <-readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the read loop did not exit on socket close")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	m := d.Snapshot()
	if !m.Conserved() {
		t.Error("metrics not conserved")
	}
}
