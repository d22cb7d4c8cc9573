package udpio

import (
	"net/netip"
	"testing"
)

// BenchmarkUDPRun sends one egress run — 16 datagrams of 64 bytes to one
// connected loopback peer — per op, as the gateway's pump hands a flow's
// share of a release to its socket: per-datagram is one write(2) per
// datagram (the net package path), gso is WriteRun. A goroutine drains the
// peer so its receive buffer never overflows. ns/datagram divides the op by
// 16; the two kernel paths compare directly.
func BenchmarkUDPRun(b *testing.B) {
	const runLen, size = 16, 64
	pkts := make([][]byte, runLen)
	for i := range pkts {
		pkts[i] = make([]byte, size)
	}
	for _, mode := range []string{"per-datagram", "gso"} {
		b.Run(mode, func(b *testing.B) {
			recv := listen(b, "127.0.0.1:0")
			conn := dial(b, recv)
			go func() {
				r := NewSocket(recv).NewReader()
				bufs, full := make([][]byte, 32), make([][]byte, 32)
				for i := range full {
					full[i] = make([]byte, 2048)
				}
				for {
					copy(bufs, full)
					if _, err := r.ReadBatch(bufs); err != nil {
						return
					}
				}
			}()
			s, w := NewSocket(conn), NewWriter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "gso" {
					if _, err := w.WriteRun(s, netip.AddrPort{}, pkts); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, p := range pkts {
					if _, err := conn.Write(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runLen), "ns/datagram")
		})
	}
}
