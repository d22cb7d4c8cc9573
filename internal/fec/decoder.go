package fec

import "fmt"

// DefaultDecodeWindow is how many blocks per stream the decoder tracks
// before the oldest is given up on. A block older than the window whose
// erasures were never repaired is counted Unrecoverable.
const DefaultDecodeWindow = 32

// DecoderStats counts what the decoder has seen and done.
type DecoderStats struct {
	SourcesIn     uint64 // source datagrams accepted
	RepairsIn     uint64 // repair datagrams accepted
	Duplicates    uint64 // re-deliveries ignored
	Recovered     uint64 // erased sources reconstructed
	Unrecoverable uint64 // erased sources abandoned at window eviction
	Blocks        uint64 // blocks retired (completed or evicted)
}

// Decoder reassembles FEC blocks on the receive side. Datagrams may arrive
// in any order and from many streams; blocks are keyed by (stream, block id)
// and each stream keeps a sliding window of DefaultDecodeWindow blocks.
// Source payloads are delivered as they arrive (the code is systematic);
// recovered payloads are delivered the moment enough symbols are present.
//
// Not goroutine-safe; drive it from one ingress loop.
type Decoder struct {
	window  int
	streams map[uint16]*streamState
	stats   DecoderStats
	est     float64 // EWMA of per-block loss fraction
	estInit bool
}

type streamState struct {
	blocks map[uint32]*blockState
	order  []uint32 // insertion order, for window eviction
}

type blockState struct {
	k, r      int
	payloads  [][]byte // len k; nil = not yet seen
	repairs   [][]byte // len r framed symbols; nil = not yet seen
	symLen    int
	nSrc      int // payloads present, native or recovered
	nRep      int
	recovered int // payloads filled by reconstruction, not arrival
	done      bool
}

// NewDecoder builds a decoder with the default window.
func NewDecoder() *Decoder {
	return &Decoder{window: DefaultDecodeWindow, streams: make(map[uint16]*streamState)}
}

// Stats returns a snapshot of the decoder's counters.
func (d *Decoder) Stats() DecoderStats { return d.stats }

// LossEstimate is the EWMA fraction of a block's k+r datagrams that never
// arrived, measured over retired blocks — the number a receiver feeds back
// to the sender's redundancy Controller.
func (d *Decoder) LossEstimate() float64 { return d.est }

// Push processes one received datagram. It returns the payloads this
// datagram released, in delivery order: for a source datagram the payload
// itself (aliasing b — consume it before reusing the buffer), followed by
// any erased payloads its arrival allowed the decoder to reconstruct (fresh
// allocations). A repair datagram releases only reconstructions. Datagrams
// without the FEC magic return ErrNotFEC so callers can pass them through.
func (d *Decoder) Push(b []byte) ([][]byte, error) {
	h, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	ss := d.streams[h.stream]
	if ss == nil {
		ss = &streamState{blocks: make(map[uint32]*blockState)}
		d.streams[h.stream] = ss
	}
	bs := ss.blocks[h.block]
	if bs == nil {
		bs = &blockState{
			k:        h.k,
			r:        h.r,
			payloads: make([][]byte, h.k),
			repairs:  make([][]byte, h.r),
		}
		ss.blocks[h.block] = bs
		ss.order = append(ss.order, h.block)
		for len(ss.order) > d.window {
			d.retire(ss, ss.order[0])
			ss.order = ss.order[1:]
		}
	}
	if bs.done {
		d.stats.Duplicates++
		return nil, nil
	}
	// r is fixed for a block's lifetime (retunes land at block boundaries),
	// but k needs reconciling: sources are stamped with the provisional k
	// before an early Flush can shrink the block, so the smallest k seen —
	// in practice the repairs' flush-time value — is the real one.
	if h.r != bs.r {
		return nil, fmt.Errorf("fec: stream %d block %d r mismatch: %d vs %d",
			h.stream, h.block, h.r, bs.r)
	}
	if h.k < bs.k {
		for _, p := range bs.payloads[h.k:] {
			if p != nil {
				return nil, fmt.Errorf("fec: stream %d block %d shrank below a delivered index",
					h.stream, h.block)
			}
		}
		bs.payloads = bs.payloads[:h.k]
		bs.k = h.k
	}
	if (h.repair && h.index >= bs.r) || (!h.repair && h.index >= bs.k) {
		return nil, fmt.Errorf("fec: stream %d block %d index %d outside k=%d r=%d",
			h.stream, h.block, h.index, bs.k, bs.r)
	}

	var out [][]byte
	if h.repair {
		if bs.repairs[h.index] != nil {
			d.stats.Duplicates++
			return nil, nil
		}
		symLen := int(b[12])<<8 | int(b[13])
		body := b[RepairOverhead:]
		if len(body) < symLen || symLen < lenPrefix {
			return nil, fmt.Errorf("fec: repair symbol truncated (%d of %d bytes)", len(body), symLen)
		}
		// One Flush codes every repair of a block at one symbol length; a
		// repair that disagrees is forged or corrupt, and letting it reframe
		// the block would overrun the shorter symbols at reconstruction.
		if bs.symLen != 0 && symLen != bs.symLen {
			return nil, fmt.Errorf("fec: stream %d block %d repair symbol length %d, block has %d",
				h.stream, h.block, symLen, bs.symLen)
		}
		sym := make([]byte, symLen)
		copy(sym, body[:symLen])
		bs.repairs[h.index] = sym
		bs.symLen = symLen
		bs.nRep++
		d.stats.RepairsIn++
	} else {
		if bs.payloads[h.index] != nil {
			d.stats.Duplicates++
			return nil, nil
		}
		payload := b[SourceOverhead:]
		keep := make([]byte, len(payload))
		copy(keep, payload)
		bs.payloads[h.index] = keep
		bs.nSrc++
		d.stats.SourcesIn++
		out = append(out, payload)
	}

	if bs.nSrc == bs.k {
		d.finish(ss, h.block, bs)
		return out, nil
	}
	if bs.nRep > 0 && bs.nSrc+bs.nRep >= bs.k {
		recovered, err := d.reconstruct(bs)
		if err != nil {
			return out, err
		}
		out = append(out, recovered...)
		d.finish(ss, h.block, bs)
	}
	return out, nil
}

// reconstruct frames the retained payloads to the block's symbol length,
// solves for the erasures, and returns the recovered payloads in index
// order.
func (d *Decoder) reconstruct(bs *blockState) ([][]byte, error) {
	sources := make([][]byte, bs.k)
	for i, p := range bs.payloads {
		if p == nil {
			continue
		}
		s := make([]byte, bs.symLen)
		s[0], s[1] = byte(len(p)>>8), byte(len(p))
		copy(s[lenPrefix:], p)
		sources[i] = s
	}
	cd, err := newCode(Spec{Scheme: SchemeRS, K: bs.k, R: bs.r})
	if err != nil {
		return nil, err
	}
	if err := cd.reconstruct(sources, bs.repairs); err != nil {
		return nil, err
	}
	// Check every recovered length before delivering any, so a corrupt
	// block stays as it was.
	for i, p := range bs.payloads {
		if p != nil {
			continue
		}
		sym := sources[i]
		if n := int(sym[0])<<8 | int(sym[1]); n > len(sym)-lenPrefix {
			return nil, fmt.Errorf("fec: recovered length %d exceeds symbol %d", n, len(sym)-lenPrefix)
		}
	}
	var out [][]byte
	for i, p := range bs.payloads {
		if p != nil {
			continue
		}
		sym := sources[i]
		payload := sym[lenPrefix : lenPrefix+(int(sym[0])<<8|int(sym[1]))]
		bs.payloads[i] = payload
		bs.nSrc++
		bs.recovered++
		out = append(out, payload)
		d.stats.Recovered++
	}
	return out, nil
}

// finish retires a completed block: the map entry flips to a tombstone that
// absorbs duplicate datagrams until the window slides past it.
func (d *Decoder) finish(ss *streamState, id uint32, bs *blockState) {
	d.observeBlock(bs)
	bs.done = true
	bs.payloads = nil
	bs.repairs = nil
	d.stats.Blocks++
}

// retire evicts the oldest block at window overflow, counting sources that
// never arrived and can no longer be repaired.
func (d *Decoder) retire(ss *streamState, id uint32) {
	bs := ss.blocks[id]
	delete(ss.blocks, id)
	if bs == nil || bs.done {
		return
	}
	d.observeBlock(bs)
	d.stats.Unrecoverable += uint64(bs.k - bs.nSrc)
	d.stats.Blocks++
}

// observeBlock folds one retired block's arrival deficit into the loss EWMA.
// Recovered sources were still lost on the wire, so the sample counts
// original arrivals only: 1 - arrived/(k+r).
func (d *Decoder) observeBlock(bs *blockState) {
	arrived := bs.nSrc - bs.recovered + bs.nRep
	lost := float64(bs.k+bs.r-arrived) / float64(bs.k+bs.r)
	if lost < 0 {
		lost = 0
	}
	const alpha = 0.25
	if !d.estInit {
		d.est, d.estInit = lost, true
		return
	}
	d.est = (1-alpha)*d.est + alpha*lost
}
