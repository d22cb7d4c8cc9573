// Package udpio is the gateway's kernel-batched UDP socket layer. On Linux
// a Reader fills a whole batch of datagrams with one recvmmsg(2), and a
// Writer sends a run of datagrams to one destination with one sendmmsg(2)
// whose messages are UDP GSO groups: equal-size datagrams (the last may be
// shorter) handed to the kernel as one buffer with a UDP_SEGMENT size, so
// a group crosses the IP stack once instead of once per datagram. Both go
// through syscall.RawConn, so the runtime's poller still does the waiting
// and socket deadlines still apply. Elsewhere the same API reads and writes
// one datagram per call.
//
// A Socket wraps one *net.UDPConn and is safe for concurrent use; Readers
// and Writers carry their own scratch and are each used by one goroutine at
// a time. Steady-state reads and writes allocate nothing.
package udpio

import (
	"net"
	"net/netip"
)

const (
	// maxSegments caps the datagrams in one GSO group (the kernel's
	// UDP_MAX_SEGMENTS).
	maxSegments = 64
	// maxGroupBytes caps the payload bytes of one GSO group, which travels
	// as one IP packet below the 64 KiB limit.
	maxGroupBytes = 65000
)

// Socket is one UDP socket's batched-I/O handle. Make it once per socket:
// it looks up the socket's RawConn and address family, and remembers
// whether the kernel accepts GSO on it.
type Socket struct {
	conn *net.UDPConn
	sock // per-system state
}

// NewSocket wraps c. A socket that is already closed yields a handle whose
// every operation fails with net.ErrClosed.
func NewSocket(c *net.UDPConn) *Socket {
	s := &Socket{conn: c}
	s.init()
	return s
}

// Conn returns the wrapped socket.
func (s *Socket) Conn() *net.UDPConn { return s.conn }

// Reader reads batches of datagrams from one Socket and keeps each one's
// source endpoint. It implements both the per-datagram ReadPacket and the
// batch ReadBatch shapes of the data-plane's ingress contracts. Not safe for
// concurrent use.
type Reader struct {
	s    *Socket
	srcs []netip.AddrPort // source of each datagram of the last read, unmapped
	one  [1][]byte        // ReadPacket's batch of one
	reader
}

// NewReader returns a Reader over s.
func (s *Socket) NewReader() *Reader { return &Reader{s: s} }

// ReadPacket reads one datagram into buf; Source(0) is its sender.
func (r *Reader) ReadPacket(buf []byte) (int, error) {
	r.one[0] = buf
	if _, err := r.ReadBatch(r.one[:]); err != nil {
		return 0, err
	}
	return len(r.one[0]), nil
}

// Source returns the sender of datagram i of the last read, with an
// IPv4-mapped address unmapped, so a dual-stack socket reports an IPv4
// client in its 4-byte form.
func (r *Reader) Source(i int) netip.AddrPort { return r.srcs[i] }

// growSources sizes srcs for n datagrams, allocating only when a batch is
// wider than any before it.
func (r *Reader) growSources(n int) {
	if cap(r.srcs) < n {
		r.srcs = make([]netip.AddrPort, n)
	}
	r.srcs = r.srcs[:n]
}

// Writer sends runs of datagrams. Not safe for concurrent use: give each
// sending goroutine its own.
type Writer struct {
	writer
}

// NewWriter returns a Writer.
func NewWriter() *Writer { return &Writer{} }

// nextGroup returns how many datagrams at the head of pkts form one GSO
// group: datagrams of the first one's size, then at most one shorter
// datagram to close the group, within maxSegments and maxGroupBytes. An
// empty datagram, or one over maxGroupBytes, travels alone.
func nextGroup(pkts [][]byte) int {
	size := len(pkts[0])
	if size == 0 || size > maxGroupBytes {
		return 1
	}
	n, bytes := 1, size
	for n < len(pkts) && n < maxSegments {
		l := len(pkts[n])
		if l == 0 || l > size || bytes+l > maxGroupBytes {
			break
		}
		n++
		bytes += l
		if l < size {
			break // a shorter datagram ends the group
		}
	}
	return n
}
