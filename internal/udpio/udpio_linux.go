//go:build linux

package udpio

import (
	"errors"
	"net/netip"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	solUDP     = syscall.IPPROTO_UDP
	udpSegment = 103 // UDP_SEGMENT (Linux 4.18+); not exported by package syscall
	maxMsgs    = 64  // messages per recvmmsg/sendmmsg call
)

// mmsghdr is struct mmsghdr: one message of a recvmmsg/sendmmsg vector and
// the byte count the kernel reports for it.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// gsoCmsg is one UDP_SEGMENT control message: the group's segment size.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
}

// errFamily fails a send to a destination the socket's address family
// cannot reach (an IPv6 peer on an IPv4 socket).
var errFamily = errors.New("udpio: destination address family does not match the socket")

type sock struct {
	rc    syscall.RawConn
	err   error       // SyscallConn failed: every operation returns it
	v6    bool        // AF_INET6 socket: IPv4 destinations go out v4-mapped
	noGSO atomic.Bool // the kernel refused GSO here once: one message per datagram since
}

func (s *Socket) init() {
	s.rc, s.err = s.conn.SyscallConn()
	if s.err != nil {
		return
	}
	// A closed socket fails here and, later, in every read and write.
	s.rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err == nil {
			_, s.v6 = sa.(*syscall.SockaddrInet6)
		}
	})
}

// refusesGSO reports whether a failed GSO send means the kernel or the
// device cannot segment for this socket (no UDP_SEGMENT, no checksum
// offload), rather than that the datagrams themselves are bad.
func refusesGSO(e syscall.Errno) bool {
	return e == syscall.EIO || e == syscall.EINVAL || e == syscall.ENOPROTOOPT
}

// sendmmsg is the kernel call behind every send. Tests swap it to make the
// kernel refuse GSO.
var sendmmsg = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), 0, 0, 0)
	if e != 0 {
		return 0, e
	}
	return int(n), 0
}

// setIovlen sets a Msghdr's Iovlen, whose width differs between 32- and
// 64-bit systems.
func setIovlen[T uint32 | uint64](p *T, n int) { *p = T(n) }

// growTo returns s with length n, reallocated only when n exceeds its
// capacity; the contents are not kept.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

type reader struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	want  int // messages offered to this read
	got   int
	errno syscall.Errno
	fn    func(fd uintptr) bool // r.recv, bound once
}

// ReadBatch fills up to len(bufs) datagrams with one recvmmsg, reslicing
// each filled bufs[i] to its datagram, and returns how many arrived. It
// blocks, honouring the socket's read deadline, until at least one has.
func (r *Reader) ReadBatch(bufs [][]byte) (int, error) {
	if r.s.err != nil {
		return 0, r.s.err
	}
	n := min(len(bufs), maxMsgs)
	if n == 0 {
		return 0, nil
	}
	r.hdrs = growTo(r.hdrs, n)
	r.iovs = growTo(r.iovs, n)
	r.names = growTo(r.names, n)
	for i := 0; i < n; i++ {
		iov := &r.iovs[i]
		iov.Base = nil
		if len(bufs[i]) > 0 {
			iov.Base = &bufs[i][0]
		}
		iov.SetLen(len(bufs[i]))
		r.hdrs[i].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&r.names[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     iov,
		}
		setIovlen(&r.hdrs[i].hdr.Iovlen, 1)
	}
	r.want = n
	if r.fn == nil {
		r.fn = r.recv
	}
	if err := r.s.rc.Read(r.fn); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", r.errno)
	}
	r.growSources(r.got)
	for i := 0; i < r.got; i++ {
		bufs[i] = bufs[i][:r.hdrs[i].n]
		r.srcs[i] = decodeSockaddr(&r.names[i])
	}
	return r.got, nil
}

// recv is the RawConn read callback: it reports false (wait for the
// socket to turn readable) only while nothing is queued.
func (r *reader) recv(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd, uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.want), 0, 0, 0)
		switch e {
		case 0:
			r.got, r.errno = int(n), 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		r.got, r.errno = 0, e
		return true
	}
}

type writer struct {
	hdrs    []mmsghdr
	iovs    []syscall.Iovec
	cmsgs   []gsoCmsg
	segs    []int // datagrams in each message
	name    syscall.RawSockaddrInet6
	namelen uint32
	nmsgs   int // messages packed for this call
	sent    int // messages the kernel took
	errno   syscall.Errno
	fn      func(fd uintptr) bool // w.send, bound once
}

// WriteRun sends pkts, in order, to dst through s, or to s's connected
// peer when dst is the zero AddrPort, and returns how many were sent; on
// error, pkts[n] is the first datagram not sent. Each call to the kernel
// is one sendmmsg whose messages are GSO groups (nextGroup). When the
// kernel refuses GSO, the unsent rest of the run goes out again as one
// message per datagram, and so does every later run on s.
func (w *Writer) WriteRun(s *Socket, dst netip.AddrPort, pkts [][]byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if err := w.setDst(s, dst); err != nil {
		return 0, err
	}
	if w.fn == nil {
		w.fn = w.send
	}
	written := 0
	for written < len(pkts) {
		gso := !s.noGSO.Load()
		w.pack(pkts[written:], gso)
		w.sent, w.errno = 0, 0
		err := s.rc.Write(w.fn)
		for _, k := range w.segs[:w.sent] {
			written += k
		}
		if err != nil {
			return written, err
		}
		if e := w.errno; e != 0 {
			if gso && w.segs[w.sent] > 1 && refusesGSO(e) {
				s.noGSO.Store(true)
				continue
			}
			return written, os.NewSyscallError("sendmmsg", e)
		}
	}
	return written, nil
}

// pack lays out the messages of one sendmmsg over the head of pkts: GSO
// groups when gso is set, one datagram per message otherwise, at most
// maxMsgs messages.
func (w *writer) pack(pkts [][]byte, gso bool) {
	nd := min(len(pkts), maxMsgs*maxSegments)
	nm := min(len(pkts), maxMsgs)
	w.iovs = growTo(w.iovs, nd)
	w.hdrs = growTo(w.hdrs, nm)
	w.cmsgs = growTo(w.cmsgs, nm)
	w.segs = growTo(w.segs, nm)
	w.nmsgs = 0
	iov := 0
	for len(pkts) > 0 && w.nmsgs < maxMsgs {
		k := 1
		if gso {
			k = nextGroup(pkts)
		}
		for j, b := range pkts[:k] {
			v := &w.iovs[iov+j]
			v.Base = nil
			if len(b) > 0 {
				v.Base = &b[0]
			}
			v.SetLen(len(b))
		}
		h := &w.hdrs[w.nmsgs].hdr
		*h = syscall.Msghdr{Iov: &w.iovs[iov]}
		setIovlen(&h.Iovlen, k)
		if w.namelen > 0 {
			h.Name = (*byte)(unsafe.Pointer(&w.name))
			h.Namelen = w.namelen
		}
		if k > 1 {
			c := &w.cmsgs[w.nmsgs]
			c.hdr.Level, c.hdr.Type = solUDP, udpSegment
			c.hdr.SetLen(syscall.CmsgLen(2))
			c.size = uint16(len(pkts[0]))
			h.Control = (*byte)(unsafe.Pointer(c))
			h.SetControllen(syscall.CmsgSpace(2))
		}
		w.segs[w.nmsgs] = k
		w.nmsgs++
		iov += k
		pkts = pkts[k:]
	}
}

// send is the RawConn write callback: it pushes the packed messages until
// all are sent or one fails, and reports false (wait for room in the send
// buffer) on EAGAIN.
func (w *writer) send(fd uintptr) bool {
	for w.sent < w.nmsgs {
		n, e := sendmmsg(fd, w.hdrs[w.sent:w.nmsgs])
		switch e {
		case 0:
			w.sent += n
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			w.errno = e
			return true
		}
	}
	return true
}

// setDst encodes dst as the run's destination sockaddr: for an AF_INET6
// socket in its 16-byte form (IPv4 v4-mapped), for an AF_INET socket in
// the 4-byte form. The zero AddrPort leaves the name empty (connected
// socket).
func (w *writer) setDst(s *Socket, dst netip.AddrPort) error {
	w.namelen = 0
	if !dst.IsValid() {
		return nil
	}
	a := dst.Addr()
	if s.v6 {
		w.name = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
		putPort(&w.name.Port, dst.Port())
		if z := a.Zone(); z != "" {
			// decodeSockaddr writes a link-local sender's scope as a
			// numeric zone.
			scope, _ := strconv.ParseUint(z, 10, 32)
			w.name.Scope_id = uint32(scope)
		}
		w.namelen = syscall.SizeofSockaddrInet6
		return nil
	}
	if a = a.Unmap(); !a.Is4() {
		return errFamily
	}
	sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&w.name))
	*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
	putPort(&sa.Port, dst.Port())
	w.namelen = syscall.SizeofSockaddrInet4
	return nil
}

// decodeSockaddr turns a sockaddr the kernel wrote into an AddrPort,
// unmapping IPv4-mapped addresses, without allocating. A link-local
// source keeps its scope as a numeric zone.
func decodeSockaddr(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	port := getPort(&sa.Port)
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)
	case syscall.AF_INET6:
		a := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.Scope_id != 0 && a.Is6() {
			a = a.WithZone(strconv.FormatUint(uint64(sa.Scope_id), 10))
		}
		return netip.AddrPortFrom(a, port)
	}
	return netip.AddrPort{}
}

// putPort and getPort store and load a sockaddr port, which is in network
// byte order.
func putPort(p *uint16, port uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0], b[1] = byte(port>>8), byte(port)
}

func getPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}
