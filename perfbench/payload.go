package main

import (
	"encoding/binary"
	"fmt"
)

// Datagram layout shared by every workload. All of it derives from the
// workload seed; the program under test sees only these bytes.
//
//	[0]     class byte (hpfqgw -classify byte0 reads it)
//	[1]     stream: which generator (client socket, probe stream) sent it
//	[2:4]   slot: closed-loop window slot, 0 for open-loop streams
//	[4:12]  sequence number within the stream
//	[12:]   filler: splitmix64 stream keyed by (seed, stream, seq)
const hdrLen = 12

// mix is splitmix64's finalizer: a cheap, well-spread 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func key(seed int64, stream byte, seq uint64) uint64 {
	return mix(uint64(seed)*0x100000001b3 ^ uint64(stream)<<56 ^ mix(seq))
}

// classOf draws a datagram's class from the seed: the class interleave.
func classOf(seed int64, stream byte, seq uint64, classes int) byte {
	return byte(mix(key(seed, stream, seq)^0xc1a55) % uint64(classes))
}

// fillDatagram writes the datagram (class, stream, slot, seq) into b.
func fillDatagram(b []byte, seed int64, class, stream byte, slot uint16, seq uint64) {
	b[0], b[1] = class, stream
	binary.BigEndian.PutUint16(b[2:4], slot)
	binary.BigEndian.PutUint64(b[4:12], seq)
	x := key(seed, stream, seq)
	i := hdrLen
	for ; i+8 <= len(b); i += 8 {
		x = mix(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], mix(x))
		copy(b[i:], tail[:])
	}
}

// parsed is a datagram's header fields.
type parsed struct {
	class, stream byte
	slot          uint16
	seq           uint64
}

func parseDatagram(b []byte) (parsed, error) {
	if len(b) < hdrLen {
		return parsed{}, fmt.Errorf("runt datagram: %d bytes", len(b))
	}
	return parsed{class: b[0], stream: b[1], slot: binary.BigEndian.Uint16(b[2:4]),
		seq: binary.BigEndian.Uint64(b[4:12])}, nil
}

// verifyDatagram checks that b is exactly the datagram its header names,
// of length size, whose class is the seed's choice among classes (0 skips
// the class check). It returns the parsed header.
func verifyDatagram(b []byte, seed int64, size, classes int) (parsed, error) {
	p, err := parseDatagram(b)
	if err != nil {
		return p, err
	}
	if len(b) != size {
		return p, fmt.Errorf("stream %d seq %d: %d bytes, want %d", p.stream, p.seq, len(b), size)
	}
	if classes > 0 && p.class != classOf(seed, p.stream, p.seq, classes) {
		return p, fmt.Errorf("stream %d seq %d: class byte %d is not the seed's", p.stream, p.seq, p.class)
	}
	x := key(seed, p.stream, p.seq)
	i := hdrLen
	for ; i+8 <= len(b); i += 8 {
		x = mix(x)
		if binary.LittleEndian.Uint64(b[i:]) != x {
			return p, fmt.Errorf("stream %d seq %d: payload corrupt at byte %d", p.stream, p.seq, i)
		}
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], mix(x))
		for j := i; j < len(b); j++ {
			if b[j] != tail[j-i] {
				return p, fmt.Errorf("stream %d seq %d: payload corrupt at byte %d", p.stream, p.seq, j)
			}
		}
	}
	return p, nil
}
