package main

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hpfq"
	"hpfq/internal/udpio"
)

// Flow-table defaults: how long an idle client keeps its upstream flow, and
// how many concurrent clients the gateway tracks before evicting the idlest.
const (
	defaultFlowTTL  = 2 * time.Minute
	defaultMaxFlows = 1024
)

// flow is one client's NAT-style mapping: a dedicated connected upstream
// socket (its local port identifies the client to the upstream) plus a
// return-path goroutine relaying replies back to that client. A flow's
// lifetime is its socket: retiring or evicting closes the socket, which ends
// the return path and makes any still-queued forward datagram fail fatally
// at write time (recorded as a "write-error" drop).
type flow struct {
	client netip.AddrPort // the table key and the return-path destination
	conn   *net.UDPConn
	sock   atomic.Pointer[udpio.Socket] // batched I/O on conn; see socket
	shard  int                          // owning data-plane shard, for /api/flows
	// last is the latest activity in either direction, as monotonic time
	// since the table's epoch.
	last atomic.Int64
}

// socket returns the batched-I/O handle on f's socket, made on first use
// by the pump or the return path, whichever comes first.
func (f *flow) socket() *udpio.Socket {
	if s := f.sock.Load(); s != nil {
		return s
	}
	f.sock.CompareAndSwap(nil, udpio.NewSocket(f.conn))
	return f.sock.Load()
}

// flowTable maps client endpoints to flows. Each flow ends itself: its
// return-path goroutine retires it ttl after its last activity in either
// direction, never sooner, so no janitor exists and replies take no table
// lock. Safe for concurrent use.
type flowTable struct {
	listen   *udpio.Socket    // return-path source socket
	pool     *hpfq.BufferPool // return-path receive buffers
	upstream *net.UDPAddr
	ttl      time.Duration
	max      int
	epoch    time.Time // origin of every activity stamp; carries a monotonic reading

	mu     sync.Mutex
	flows  map[netip.AddrPort]*flow
	closed bool
	wg     sync.WaitGroup // return-path goroutines
}

func newFlowTable(listen *net.UDPConn, upstream *net.UDPAddr, ttl time.Duration, max int) *flowTable {
	if ttl <= 0 {
		ttl = defaultFlowTTL
	}
	if max <= 0 {
		max = defaultMaxFlows
	}
	return &flowTable{
		listen:   udpio.NewSocket(listen),
		pool:     hpfq.SharedBufferPool(),
		upstream: upstream,
		ttl:      ttl,
		max:      max,
		epoch:    time.Now(),
		flows:    make(map[netip.AddrPort]*flow),
	}
}

// now is the current activity stamp: monotonic time since the epoch, so a
// wall-clock step can neither age nor rejuvenate a flow.
func (t *flowTable) now() int64 { return int64(time.Since(t.epoch)) }

// lookup returns src's flow, creating it (and its return-path goroutine) on
// first sight and recording shard as its owner. A hit stamps activity under
// the table lock, so retire cannot close a flow a datagram was just routed
// to. At capacity the idlest flow is evicted first, NAT-style.
func (t *flowTable) lookup(src netip.AddrPort, shard int) (*flow, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, net.ErrClosed
	}
	if f, ok := t.flows[src]; ok {
		f.last.Store(t.now())
		return f, nil
	}
	if len(t.flows) >= t.max {
		t.evictIdlestLocked()
	}
	conn, err := net.DialUDP("udp", nil, t.upstream)
	if err != nil {
		return nil, err
	}
	f := &flow{client: src, conn: conn, shard: shard}
	f.last.Store(t.now())
	t.flows[src] = f
	t.wg.Add(1)
	go t.returnPath(f)
	return f, nil
}

// returnPath relays upstream replies on f's socket back to f's client,
// stamping each batch as activity: each recvmmsg batch goes out as GSO
// groups on the listen socket. Its read deadline trails the stamp by ttl
// and is re-armed only when it fires, so a busy flow pays for it once per
// ttl. It exits when the flow's socket closes (retirement, eviction or
// table close), and on any other read error it ends the flow itself, so
// the client's next datagram builds a fresh one.
func (t *flowTable) returnPath(f *flow) {
	defer t.wg.Done()
	arm := func() { f.conn.SetReadDeadline(t.epoch.Add(time.Duration(f.last.Load()) + t.ttl)) }
	arm()
	rd, wr := f.socket().NewReader(), udpio.NewWriter()
	batch := newRxBatch(t.pool, maxReturnBatch)
	defer batch.release()
	for {
		n, err := batch.read(rd)
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			if t.retire(f) {
				return
			}
			arm() // active since the deadline was armed
			continue
		case errors.Is(err, syscall.ECONNREFUSED):
			// An ICMP port-unreachable from an upstream that is down or
			// restarting: transient, and the deadline is still armed.
			continue
		case errors.Is(err, net.ErrClosed):
			return
		default:
			t.mu.Lock()
			t.endLocked(f)
			t.mu.Unlock()
			return
		}
		f.last.Store(t.now())
		t.relay(wr, f.client, batch.view[:n])
	}
}

// relay sends replies to client on the listen socket. A reply the socket
// cannot send is lost like any datagram, and the rest still go; the flow
// lives on.
func (t *flowTable) relay(wr *udpio.Writer, client netip.AddrPort, replies [][]byte) {
	for len(replies) > 0 {
		n, err := wr.WriteRun(t.listen, client, replies)
		if err == nil {
			return
		}
		replies = replies[n+1:]
	}
}

// retire ends f if it has been idle for at least ttl, reporting whether it
// did (or the table is already closed). It checks under the lock forward
// hits stamp under, so a flow touched while its deadline fired is kept.
func (t *flowTable) retire(f *flow) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return true
	}
	if t.now()-f.last.Load() < int64(t.ttl) {
		return false
	}
	t.endLocked(f)
	return true
}

// endLocked removes f from the table, unless it was already evicted and
// replaced, and closes its socket. Caller holds t.mu.
func (t *flowTable) endLocked(f *flow) {
	if t.flows[f.client] == f {
		delete(t.flows, f.client)
	}
	f.conn.Close()
}

// evictIdlestLocked drops the longest-idle flow to make room. Caller holds
// t.mu.
func (t *flowTable) evictIdlestLocked() {
	var idlest *flow
	for _, f := range t.flows {
		if idlest == nil || f.last.Load() < idlest.last.Load() {
			idlest = f
		}
	}
	if idlest != nil {
		t.endLocked(idlest)
	}
}

// snapshot freezes the flow table for the admin server's /api/flows
// endpoint.
func (t *flowTable) snapshot() []hpfq.FlowInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]hpfq.FlowInfo, 0, len(t.flows))
	for _, f := range t.flows {
		info := hpfq.FlowInfo{
			Client:     f.client.String(),
			LastActive: t.epoch.Add(time.Duration(f.last.Load())),
			Shard:      f.shard,
		}
		if addr := f.conn.LocalAddr(); addr != nil {
			info.LocalAddr = addr.String()
		}
		out = append(out, info)
	}
	return out
}

// has reports whether src already owns a flow, without creating one or
// stamping activity — the gateway's brownout gate distinguishes returning
// clients (kept) from new ones (refused) with this.
func (t *flowTable) has(src netip.AddrPort) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.flows[src]
	return ok
}

// count returns the live flow count.
func (t *flowTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flows)
}

// close ends every flow and waits for the return-path goroutines to exit.
// Idempotent.
func (t *flowTable) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	for key, f := range t.flows {
		delete(t.flows, key)
		f.conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
}
