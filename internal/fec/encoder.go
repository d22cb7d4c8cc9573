package fec

import "fmt"

// Encoder protects one stream (one dataplane class): it stamps each source
// datagram with the FEC header and accumulates the block's payloads; when k
// sources have been seen — or the owner decides a partial block has waited
// long enough and calls Flush — it emits the block's repair datagrams.
// Partial blocks are first-class: repairs carry the actual source count as
// k, so an idle stream never strands data waiting for a full block.
//
// Not goroutine-safe; the dataplane drives it from its pump, under the
// scheduler lock.
type Encoder struct {
	stream uint16
	spec   Spec
	cd     *rsCode

	next    Spec // geometry for the block after the current one (Retune)
	blockID uint32
	payload [][]byte // retained copies of the current block's source payloads
	maxLen  int      // longest payload this block, for symLen at flush
}

// NewEncoder builds an encoder for one stream. The stream id lands in every
// header so a decoder shared across classes keys blocks correctly.
func NewEncoder(stream uint16, spec Spec) (*Encoder, error) {
	cd, err := newCode(spec)
	if err != nil {
		return nil, err
	}
	return &Encoder{stream: stream, spec: spec, cd: cd, next: spec}, nil
}

// Spec returns the geometry of the block currently being filled.
func (e *Encoder) Spec() Spec { return e.spec }

// Pending returns how many source datagrams the open block holds.
func (e *Encoder) Pending() int { return len(e.payload) }

// Retune switches to the given geometry at the next block boundary; the
// block in flight finishes under its original spec. Invalid specs are
// rejected and the current tuning kept.
func (e *Encoder) Retune(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	e.next = spec
	return nil
}

// AddSource stamps payload as the next source datagram of the open block,
// writing header+payload into dst and retaining a copy for repair
// generation. It returns the stamped length and whether the block is now
// complete (call Flush to emit its repairs). dst must have room for
// SourceOverhead+len(payload) bytes.
func (e *Encoder) AddSource(payload, dst []byte) (int, bool, error) {
	if len(payload) > MaxSource {
		return 0, false, fmt.Errorf("fec: %d-byte datagram exceeds codable size %d", len(payload), MaxSource)
	}
	if len(dst) < SourceOverhead+len(payload) {
		return 0, false, fmt.Errorf("fec: dst too small (%d bytes for %d)", len(dst), SourceOverhead+len(payload))
	}
	idx := len(e.payload)
	putHeader(dst, header{
		stream: e.stream,
		block:  e.blockID,
		index:  idx,
		k:      e.spec.K,
		r:      e.spec.R,
	})
	copy(dst[SourceOverhead:], payload)

	keep := make([]byte, len(payload))
	copy(keep, payload)
	e.payload = append(e.payload, keep)
	if len(payload) > e.maxLen {
		e.maxLen = len(payload)
	}
	return SourceOverhead + len(payload), len(e.payload) >= e.spec.K, nil
}

// MaxSource is the largest payload AddSource codes: a repair datagram
// (header + length-prefixed symbol) stays below the 64 KiB UDP ceiling.
const MaxSource = 64*1024 - RepairOverhead - lenPrefix

// Flush emits the open block's repair datagrams and starts a new block. It
// is a no-op on an empty block. getBuf supplies each repair's buffer (e.g.
// from the dataplane's BufferPool); it must return a slice of at least the
// requested length. The returned slices are sized to the repair datagrams.
//
// Partial blocks (Pending() < K) encode with k = Pending(): the repairs
// announce the reduced k and decoders handle the block like any other.
func (e *Encoder) Flush(getBuf func(int) []byte) [][]byte {
	k := len(e.payload)
	if k == 0 {
		return nil
	}
	spec := e.spec
	symLen := e.maxLen + lenPrefix

	// Frame each payload as [len][bytes][zero pad] to symLen. These are
	// scratch; the retained payloads are released with the block.
	sources := make([][]byte, k)
	for i, p := range e.payload {
		s := make([]byte, symLen)
		s[0], s[1] = byte(len(p)>>8), byte(len(p))
		copy(s[lenPrefix:], p)
		sources[i] = s
	}

	// Partial blocks re-derive the code for the smaller k; full blocks use
	// the prebuilt one.
	cd := e.cd
	if k < spec.K {
		cd, _ = newCode(Spec{Scheme: spec.Scheme, K: k, R: spec.R})
	}
	repairs := make([][]byte, spec.R)
	out := make([][]byte, spec.R)
	for j := range repairs {
		buf := getBuf(RepairOverhead + symLen)
		buf = buf[:RepairOverhead+symLen]
		putHeader(buf, header{
			repair: true,
			stream: e.stream,
			block:  e.blockID,
			index:  j,
			k:      k,
			r:      spec.R,
		})
		buf[12], buf[13] = byte(symLen>>8), byte(symLen)
		sym := buf[RepairOverhead:]
		for i := range sym {
			sym[i] = 0
		}
		repairs[j] = sym
		out[j] = buf
	}
	cd.encode(sources, repairs)

	e.blockID++
	e.payload = e.payload[:0]
	e.maxLen = 0
	if e.next != e.spec {
		e.spec = e.next
		e.cd, _ = newCode(e.spec) // validated in Retune
	}
	return out
}
