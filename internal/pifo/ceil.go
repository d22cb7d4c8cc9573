package pifo

import (
	"hpfq/internal/packet"
	"hpfq/internal/pq"
)

// Ceilings as shaping transactions ("Programmable Packet Scheduling at Line
// Rate", §3.3). internal/hier's Tree consults its Shaper where a child
// would enter its parent's PIFO: a capped entity whose bucket is in deficit
// is held until a wall-clock release time, the parent serving the others
// meanwhile, and re-enters as newly backlogged (S ← max(F, V)), so time
// held earns no catch-up credit. Each departure charges every capped entity
// on its path, and an entity passes a check only with a non-negative
// bucket, sending one packet per check: over any window w it sends at most
// ceil·w + BucketDepth(ceil) + L_max.

// BucketDepth sizes a ceiling's token bucket in bits: 5 ms at the ceiling,
// floored at two of the paper's 8 KB packets so slow ceilings can still pass
// one maximum-size datagram per refill.
func BucketDepth(rate float64) float64 {
	return max(rate*0.005, 2*float64(packet.Bits8KB))
}

// bucket is one ceiling: rate bits/sec, BucketDepth(rate) deep, tokens as
// of last (seconds), negative while in deficit.
type bucket struct{ rate, depth, tokens, last float64 }

func (b *bucket) refill(now float64) {
	if now > b.last {
		b.tokens = min(b.depth, b.tokens+(now-b.last)*b.rate)
		b.last = now
	}
}

// ready returns the earliest time the bucket is non-negative.
func (b *bucket) ready() float64 { return b.last - min(b.tokens, 0)/b.rate }

// Shaper holds a tree's ceilings by dense node id and the release-time heap
// of the nodes held in deficit. The tree allocates one on the first
// ceiling, so an unshaped tree pays one nil check per push; the read
// methods accept a nil Shaper.
type Shaper struct {
	ceils []*bucket
	held  pq.Heap
	n     int // ceilings set
}

func (s *Shaper) ceil(id int) *bucket {
	if s != nil && id < len(s.ceils) {
		return s.ceils[id]
	}
	return nil
}

// Set caps id at rate bits/sec from now; rate <= 0 lifts the cap. A new cap
// starts with a full bucket, a retune keeps the bucket's level. Set reports
// whether lifting the cap freed a held id, which the caller must then push
// as newly backlogged.
func (s *Shaper) Set(id int, rate, now float64) (freed bool) {
	b := s.ceil(id)
	switch {
	case rate <= 0 && b != nil:
		s.ceils[id] = nil
		s.n--
		if freed = s.held.Contains(id); freed {
			s.held.Remove(id)
		}
	case rate <= 0:
	case b == nil:
		for len(s.ceils) <= id {
			s.ceils = append(s.ceils, nil)
		}
		d := BucketDepth(rate)
		s.ceils[id] = &bucket{rate, d, d, now}
		s.n++
	default:
		b.refill(now)
		b.rate, b.depth = rate, BucketDepth(rate)
		b.tokens = min(b.tokens, b.depth)
		if s.held.Contains(id) {
			s.held.Update(id, b.ready())
		}
	}
	return freed
}

// Rate returns id's ceiling in bits/sec, 0 when uncapped.
func (s *Shaper) Rate(id int) float64 {
	if b := s.ceil(id); b != nil {
		return b.rate
	}
	return 0
}

// Capped reports whether any ceiling is set.
func (s *Shaper) Capped() bool { return s != nil && s.n > 0 }

// Hold reports whether id is capped and in deficit at now; if so id is (or
// stays) held until its release time.
func (s *Shaper) Hold(id int, now float64) bool {
	b := s.ceil(id)
	if b == nil || b.ready() <= now {
		return false
	}
	if !s.held.Contains(id) {
		s.held.Push(id, b.ready())
	}
	return true
}

// Held reports whether id is waiting for its release time.
func (s *Shaper) Held(id int) bool { return s != nil && s.held.Contains(id) }

// Charge takes a departure of bits at now from id's bucket, if capped.
func (s *Shaper) Charge(id int, bits, now float64) {
	if b := s.ceil(id); b != nil {
		b.refill(now)
		b.tokens -= bits
	}
}

// Due pops a held id whose release time has come by now.
func (s *Shaper) Due(now float64) (int, bool) {
	if s.held.Empty() || s.held.MinKey() > now {
		return -1, false
	}
	id, _, _ := s.held.Pop()
	return id, true
}

// NextRelease returns the earliest release time of a held id; ok is false
// when nothing is held.
func (s *Shaper) NextRelease() (at float64, ok bool) {
	if s == nil || s.held.Empty() {
		return 0, false
	}
	return s.held.MinKey(), true
}
