//go:build !linux

package udpio

import "net/netip"

// Without recvmmsg, sendmmsg and UDP GSO, every read and write moves one
// datagram through the net package.

type sock struct{}

func (s *Socket) init() {}

type reader struct{}

// ReadBatch reads one datagram into bufs[0], reslicing it, and returns 1.
func (r *Reader) ReadBatch(bufs [][]byte) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, src, err := r.s.conn.ReadFromUDPAddrPort(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	r.growSources(1)
	r.srcs[0] = netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
	return 1, nil
}

type writer struct{}

// WriteRun sends pkts one at a time, in order, to dst through s, or to s's
// connected peer when dst is the zero AddrPort, and returns how many were
// sent.
func (w *Writer) WriteRun(s *Socket, dst netip.AddrPort, pkts [][]byte) (int, error) {
	for i, b := range pkts {
		var err error
		if dst.IsValid() {
			_, err = s.conn.WriteToUDPAddrPort(b, dst)
		} else {
			_, err = s.conn.Write(b)
		}
		if err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}
