package udpio

import (
	"math/rand"
	"net/netip"
	"syscall"
	"testing"
)

// kernelView swaps the sendmmsg seam for one that records what reaches the
// kernel and, with refuse set, fails any call whose first message is a GSO
// group with refuse (messages before the first GSO group go through, as a
// kernel that sends a vector's prefix would). The real call is restored at
// cleanup.
type kernelView struct {
	refuse   syscall.Errno
	gsoMsgs  int // GSO messages the kernel took
	plain    int // single-datagram messages the kernel took
	refusals int
}

func watchKernel(t *testing.T, refuse syscall.Errno) *kernelView {
	t.Helper()
	kv := &kernelView{refuse: refuse}
	real := sendmmsg
	t.Cleanup(func() { sendmmsg = real })
	sendmmsg = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
		if kv.refuse != 0 {
			k := 0
			for k < len(hdrs) && hdrs[k].hdr.Controllen == 0 {
				k++
			}
			if k == 0 {
				kv.refusals++
				return 0, kv.refuse
			}
			hdrs = hdrs[:k]
		}
		n, e := real(fd, hdrs)
		for _, h := range hdrs[:n] {
			if h.hdr.Controllen > 0 {
				kv.gsoMsgs++
			} else {
				kv.plain++
			}
		}
		return n, e
	}
	return kv
}

// TestWriteRunUsesGSO: a run of equal-size datagrams reaches the kernel as
// GSO groups, one message per group.
func TestWriteRunUsesGSO(t *testing.T) {
	recv := listen(t, "127.0.0.1:0")
	s := NewSocket(dial(t, recv))
	kv := watchKernel(t, 0)
	pkts := make([][]byte, 2*maxSegments+1)
	for i := range pkts {
		pkts[i] = []byte{byte(i), 1, 2, 3}
	}
	if n, err := NewWriter().WriteRun(s, netip.AddrPort{}, pkts); n != len(pkts) || err != nil {
		t.Fatalf("WriteRun = (%d, %v)", n, err)
	}
	expect(t, recv, pkts)
	if kv.gsoMsgs != 2 || kv.plain != 1 {
		t.Fatalf("kernel took %d GSO and %d plain messages, want 2 and 1", kv.gsoMsgs, kv.plain)
	}
	if s.noGSO.Load() {
		t.Fatal("GSO switched off on a socket that accepts it")
	}
}

// TestGSOFallback: when the kernel refuses GSO with EIO, EINVAL or
// ENOPROTOOPT, the same run goes out again one message per datagram —
// nothing lost, nothing doubled, order kept — and GSO stays off for that
// socket. Another socket keeps GSO, and an error that is not a refusal is
// returned without switching GSO off.
func TestGSOFallback(t *testing.T) {
	for _, e := range []syscall.Errno{syscall.EIO, syscall.EINVAL, syscall.ENOPROTOOPT} {
		t.Run(e.Error(), func(t *testing.T) {
			recv := listen(t, ":0")
			s := NewSocket(listen(t, ":0"))
			dst := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), addrPort(recv).Port())
			if !s.v6 {
				t.Fatal("a socket on \":0\" is not dual-stack (AF_INET6)")
			}
			kv := watchKernel(t, e)
			rng := rand.New(rand.NewSource(int64(e)))
			w := NewWriter()
			for seq := 0; seq < 10; seq++ {
				// A lone datagram ahead of the first group: the kernel takes
				// it before refusing the group behind it.
				pkts := append([][]byte{make([]byte, 3)}, randomRun(rng)...)
				rng.Read(pkts[0])
				n, err := w.WriteRun(s, dst, pkts)
				if n != len(pkts) || err != nil {
					t.Fatalf("sequence %d: WriteRun = (%d, %v), want (%d, nil)", seq, n, err, len(pkts))
				}
				expect(t, recv, pkts)
				if !s.noGSO.Load() {
					t.Fatal("GSO still on after the kernel refused it")
				}
			}
			expectNothing(t, recv)
			if kv.refusals != 1 || kv.gsoMsgs != 0 {
				t.Fatalf("%d refusals, %d GSO messages taken; want exactly one refusal, then no GSO", kv.refusals, kv.gsoMsgs)
			}

			// The refusal is per socket.
			kv.refuse = 0
			other := NewSocket(dial(t, recv))
			pkts := [][]byte{{1}, {2}, {3}}
			if n, err := w.WriteRun(other, netip.AddrPort{}, pkts); n != 3 || err != nil {
				t.Fatalf("WriteRun on another socket = (%d, %v)", n, err)
			}
			expect(t, recv, pkts)
			if other.noGSO.Load() || kv.gsoMsgs != 1 {
				t.Fatalf("another socket: GSO %v, %d GSO messages; want its own GSO on", !other.noGSO.Load(), kv.gsoMsgs)
			}
		})
	}

	t.Run("not-a-refusal", func(t *testing.T) {
		recv := listen(t, "127.0.0.1:0")
		s := NewSocket(dial(t, recv))
		watchKernel(t, syscall.EPERM)
		n, err := NewWriter().WriteRun(s, netip.AddrPort{}, [][]byte{{1}, {2}})
		if n != 0 || err == nil {
			t.Fatalf("WriteRun = (%d, %v), want (0, EPERM)", n, err)
		}
		if s.noGSO.Load() {
			t.Fatal("an error that is not a refusal switched GSO off")
		}
	})
}
