package shard

// Flow→shard placement for the software classifier (the single-socket
// fallback and any embedder that routes by an explicit flow key). The
// kernel-hash mode — SO_REUSEPORT spreading flows across per-shard sockets
// by the 4-tuple — bypasses this entirely: there each listener pins its
// traffic to one shard and the kernel is the classifier.

// jump is Lamping & Veach's jump consistent hash: it maps key onto [0, n)
// such that growing n from n to n+1 moves only ~1/(n+1) of the keys, and a
// given (key, n) pair always lands on the same shard. That is exactly the
// classifier-stability contract: same flow key → same shard, and keys move
// across a resize only because the bucket count changed, never gratuitously.
// One bucket takes every key without the loop's float division.
func jump(key uint64, n int) int {
	if n == 1 {
		return 0
	}
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Key hashes arbitrary flow-identifying bytes (an address, a connection id)
// into a 64-bit flow key with FNV-1a, allocation-free.
func Key(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// KeyAddr hashes an IP/port endpoint into a flow key without allocating —
// the gateway's per-datagram path in single-socket mode, where src.String()
// per packet would churn garbage. An IPv4-mapped IPv6 address hashes as its
// 4-byte form, so ::ffff:10.0.0.1 and 10.0.0.1 — the same client seen
// through different socket families — land on the same shard.
func KeyAddr(ip []byte, port int) uint64 {
	if len(ip) == 16 && isV4Mapped(ip) {
		ip = ip[12:]
	}
	h := uint64(fnvOffset64)
	for _, c := range ip {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	h = (h ^ uint64(port&0xff)) * fnvPrime64
	h = (h ^ uint64(port>>8&0xff)) * fnvPrime64
	return h
}

// isV4Mapped reports whether a 16-byte address is ::ffff:a.b.c.d.
func isV4Mapped(ip []byte) bool {
	for _, b := range ip[:10] {
		if b != 0 {
			return false
		}
	}
	return ip[10] == 0xff && ip[11] == 0xff
}
