package udpio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"
)

func TestNextGroup(t *testing.T) {
	sizes := func(ls ...int) [][]byte {
		pkts := make([][]byte, len(ls))
		for i, l := range ls {
			pkts[i] = make([]byte, l)
		}
		return pkts
	}
	repeat := func(n, l int) []int {
		ls := make([]int, n)
		for i := range ls {
			ls[i] = l
		}
		return ls
	}
	for _, tc := range []struct {
		name string
		ls   []int
		want int
	}{
		{"single", []int{100}, 1},
		{"equal", []int{100, 100, 100}, 3},
		{"short tail ends the group", []int{100, 100, 40, 100}, 3},
		{"longer datagram starts a new group", []int{100, 200}, 1},
		{"empty head travels alone", []int{0, 0}, 1},
		{"empty datagram ends the group before it", []int{100, 0}, 1},
		{"segment cap", repeat(100, 10), maxSegments},
		{"byte cap", repeat(40, 2000), maxGroupBytes / 2000},
		{"byte cap counts the tail", append(repeat(32, 2000), 1001), 32},
		{"oversized head travels alone", []int{maxGroupBytes + 1, 10}, 1},
	} {
		if got := nextGroup(sizes(tc.ls...)); got != tc.want {
			t.Errorf("%s: nextGroup = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// listen opens a UDP socket on addr ("127.0.0.1:0", "[::1]:0", or ":0"
// for a dual-stack socket), closed at cleanup, with a receive buffer
// large enough for a whole test sequence.
func listen(t testing.TB, addr string) *net.UDPConn {
	t.Helper()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		t.Skipf("listen %s: %v", addr, err)
	}
	c.SetReadBuffer(4 << 20)
	t.Cleanup(func() { c.Close() })
	return c
}

func dial(t testing.TB, to *net.UDPConn) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, to.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func addrPort(c *net.UDPConn) netip.AddrPort {
	return c.LocalAddr().(*net.UDPAddr).AddrPort()
}

// randomRun draws a sequence built the way the gateway's egress runs are:
// stretches of equal-size datagrams, some closed by a shorter tail, some
// longer than a GSO group may be (in segments or in bytes), now and then an
// empty datagram. Datagrams of 8 bytes or more carry their index. At most
// two stretches, so a whole sequence fits a receive buffer capped by the
// default net.core.rmem_max.
func randomRun(rng *rand.Rand) [][]byte {
	var pkts [][]byte
	for stretches := 1 + rng.Intn(2); stretches > 0; stretches-- {
		var n, size int
		switch rng.Intn(6) {
		case 0: // more segments than one group holds
			n, size = maxSegments+1+rng.Intn(40), 8+rng.Intn(120)
		case 1: // more bytes than one group holds
			n, size = maxGroupBytes/1400+1+rng.Intn(10), 1400
		case 2:
			n, size = 1, rng.Intn(9000)
		default:
			n, size = 1+rng.Intn(20), 1+rng.Intn(1500)
		}
		for i := 0; i < n; i++ {
			pkts = append(pkts, make([]byte, size))
		}
		if size > 1 && rng.Intn(2) == 0 {
			pkts = append(pkts, make([]byte, 1+rng.Intn(size-1)))
		}
	}
	for i, b := range pkts {
		rng.Read(b)
		if len(b) >= 8 {
			binary.BigEndian.PutUint64(b, uint64(i))
		}
	}
	return pkts
}

// expect reads len(want) datagrams from c and checks each against want,
// byte for byte and in order.
func expect(t *testing.T, c *net.UDPConn, want [][]byte) {
	t.Helper()
	buf := make([]byte, 1<<16)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, w := range want {
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d/%d (%d bytes): %v", i, len(want), len(w), err)
		}
		if !bytes.Equal(buf[:n], w) {
			t.Fatalf("datagram %d/%d: got %d bytes, want %d (or content differs: lost, doubled or reordered)",
				i, len(want), n, len(w))
		}
	}
}

// expectNothing checks that no further datagram is waiting on c.
func expectNothing(t *testing.T, c *net.UDPConn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1<<16)
	if n, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("extra datagram (%d bytes, err %v) after the sequence", n, err)
	}
}

// TestWriteRunLoopback: random run sequences arrive byte-exact, in order,
// one datagram each — from a connected socket to its peer, and from an
// unconnected IPv4 or dual-stack listen socket to an IPv4 client (v4-mapped
// on the dual-stack socket) or an IPv6 one.
func TestWriteRunLoopback(t *testing.T) {
	for _, tc := range []struct {
		name, from, to string
		connected      bool
	}{
		{"connected-v4", "", "127.0.0.1:0", true},
		{"connected-v6", "", "[::1]:0", true},
		{"listen-v4", "127.0.0.1:0", "127.0.0.1:0", false},
		{"dualstack-to-v4", ":0", "127.0.0.1:0", false},
		{"dualstack-to-v6", ":0", "[::1]:0", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv := listen(t, tc.to)
			var s *Socket
			var dst netip.AddrPort
			if tc.connected {
				s = NewSocket(dial(t, recv))
			} else {
				s = NewSocket(listen(t, tc.from))
				dst = addrPort(recv)
				if ip := dst.Addr(); ip.Is4() && tc.from == ":0" {
					// Address the client as a v4 flow key does: 4-byte form.
					dst = netip.AddrPortFrom(ip.Unmap(), dst.Port())
				}
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			w := NewWriter()
			for seq := 0; seq < 40; seq++ {
				pkts := randomRun(rng)
				n, err := w.WriteRun(s, dst, pkts)
				if n != len(pkts) || err != nil {
					t.Fatalf("sequence %d: WriteRun = (%d, %v), want (%d, nil)", seq, n, err, len(pkts))
				}
				expect(t, recv, pkts)
			}
			expectNothing(t, recv)
		})
	}
}

// TestWriteRunFamilyMismatch: an IPv4 socket cannot reach an IPv6 client;
// the run fails whole, before anything is sent.
func TestWriteRunFamilyMismatch(t *testing.T) {
	s := NewSocket(listen(t, "127.0.0.1:0"))
	n, err := NewWriter().WriteRun(s, netip.MustParseAddrPort("[::1]:9"), [][]byte{{1}})
	if n != 0 || err == nil {
		t.Fatalf("WriteRun to IPv6 on an IPv4 socket = (%d, %v), want (0, error)", n, err)
	}
}

// TestReadBatch: one batched read returns several queued datagrams with
// their senders; IPv4 senders on a dual-stack socket come back unmapped.
func TestReadBatch(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", ":0"} {
		t.Run(addr, func(t *testing.T) {
			lc := listen(t, addr)
			port := addrPort(lc).Port()
			to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)}
			var clients []*net.UDPConn
			for i := 0; i < 3; i++ {
				c, err := net.DialUDP("udp", nil, to)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				clients = append(clients, c)
			}
			const per = 4
			for j := 0; j < per; j++ {
				for i, c := range clients {
					if _, err := c.Write([]byte{byte(i), byte(j)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			r := NewSocket(lc).NewReader()
			lc.SetReadDeadline(time.Now().Add(5 * time.Second))
			bufs := make([][]byte, 8)
			got := 0
			for got < per*len(clients) {
				for i := range bufs {
					bufs[i] = make([]byte, 64)
				}
				n, err := r.ReadBatch(bufs)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					b := bufs[i]
					if len(b) != 2 || int(b[0]) >= len(clients) {
						t.Fatalf("datagram %q", b)
					}
					src := r.Source(i)
					if want := addrPort(clients[b[0]]); src != want {
						t.Fatalf("datagram from client %d: source %v, want %v", b[0], src, want)
					}
					if !src.Addr().Is4() {
						t.Fatalf("source %v not in its 4-byte form", src)
					}
				}
				got += n
			}
			if got != per*len(clients) {
				t.Fatalf("read %d datagrams, want %d", got, per*len(clients))
			}
		})
	}
}

// TestReadDeadlineAndClose: a batched read honours the socket's read
// deadline and ends with net.ErrClosed once the socket is closed.
func TestReadDeadlineAndClose(t *testing.T) {
	lc := listen(t, "127.0.0.1:0")
	r := NewSocket(lc).NewReader()
	lc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := r.ReadBatch([][]byte{make([]byte, 64)}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past the deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	lc.SetReadDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := r.ReadBatch([][]byte{make([]byte, 64)})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	lc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read on a closed socket: %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read did not return after close")
	}
}

// TestBatchedPathAllocFree: steady-state batched reads and run writes
// allocate nothing.
func TestBatchedPathAllocFree(t *testing.T) {
	recv := listen(t, "127.0.0.1:0")
	out := NewSocket(listen(t, "127.0.0.1:0"))
	dst := addrPort(recv)
	r := NewSocket(recv).NewReader()
	w := NewWriter()
	pkts := make([][]byte, 16)
	for i := range pkts {
		pkts[i] = make([]byte, 64)
	}
	bufs, full := make([][]byte, 16), make([][]byte, 16)
	for i := range full {
		full[i] = make([]byte, 2048)
	}
	recv.SetReadDeadline(time.Now().Add(10 * time.Second))
	var failed error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.WriteRun(out, dst, pkts); err != nil {
			failed = err
			return
		}
		for got := 0; got < len(pkts); {
			copy(bufs, full)
			n, err := r.ReadBatch(bufs)
			if err != nil {
				failed = err
				return
			}
			got += n
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Fatalf("a 16-datagram run out and back allocates %.1f times, want 0", allocs)
	}
}
