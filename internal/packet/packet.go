// Package packet defines the packet and session model shared by every
// scheduler, fluid server, and traffic source in the repository.
//
// Units: lengths are in bits, rates in bits per second, times in seconds.
// The paper's experiments use 8 KB packets (§5.1); Bits8KB is provided for
// convenience.
package packet

// Bits8KB is the length in bits of the 8 KB packets used throughout the
// paper's simulation experiments.
const Bits8KB = 8 * 1024 * 8

// Packet is the unit of service. A Packet belongs to exactly one session
// (leaf node of the scheduling hierarchy).
type Packet struct {
	Session int     // session (leaf) identifier
	Length  float64 // bits
	Seq     int64   // per-session sequence number, assigned by the source
	Arrival float64 // arrival time at the server, seconds
	Depart  float64 // departure (transmission-complete) time, seconds
	Payload any     // opaque source data (e.g. TCP segment metadata)
}

// New returns a packet for the given session and length in bits.
func New(session int, length float64) *Packet {
	return &Packet{Session: session, Length: length}
}

// FIFO is a slice-backed packet queue with amortized O(1) push and pop.
// The zero value is an empty queue.
type FIFO struct {
	buf  []*Packet
	head int
}

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return len(q.buf) - q.head }

// Empty reports whether the queue has no packets.
func (q *FIFO) Empty() bool { return q.Len() == 0 }

// Push appends p to the tail.
func (q *FIFO) Push(p *Packet) { q.buf = append(q.buf, p) }

// Head returns the packet at the head without removing it, or nil.
func (q *FIFO) Head() *Packet {
	if q.Empty() {
		return nil
	}
	return q.buf[q.head]
}

// Pop removes and returns the head packet, or nil when empty.
func (q *FIFO) Pop() *Packet {
	if q.Empty() {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		// Empty: start over at the front, so a queue that never holds
		// many packets never grows its buffer.
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return p
}

// Bits returns the total number of queued bits.
func (q *FIFO) Bits() float64 {
	var sum float64
	for i := q.head; i < len(q.buf); i++ {
		sum += q.buf[i].Length
	}
	return sum
}
