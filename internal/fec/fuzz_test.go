package fec

import (
	"math/bits"
	"testing"
)

// rsBlock encodes one RS(4,2) block of stream 1 from data (split into four
// payloads of uneven length) and returns its six datagrams, sources first,
// with the payloads.
func rsBlock(tb testing.TB, data []byte) (dgrams, payloads [][]byte) {
	enc, err := NewEncoder(1, Spec{SchemeRS, 4, 2})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := data[i*len(data)/4 : (i+1)*len(data)/4]
		dst := make([]byte, SourceOverhead+len(p))
		n, _, err := enc.AddSource(p, dst)
		if err != nil {
			tb.Fatal(err)
		}
		dgrams = append(dgrams, dst[:n])
		payloads = append(payloads, p)
	}
	dgrams = append(dgrams, enc.Flush(func(n int) []byte { return make([]byte, n) })...)
	return dgrams, payloads
}

// FuzzDecoderPush drives the receive path that takes peer bytes under
// hpfqgw -fec.decode. A valid RS(4,2) block with up to r = 2 of its six
// datagrams erased (the bits of erase) must deliver exactly its payloads;
// then two arbitrary datagrams, pushed after it and into a decoder holding
// the block half-received, must not panic.
func FuzzDecoderPush(f *testing.F) {
	data := []byte("the quick brown fox jumps over the lazy dog, twice over")
	f.Add(uint8(0), data, []byte{}, []byte{})
	f.Add(uint8(0b000011), data, []byte("not fec"), []byte{magic0, magic1})
	f.Add(uint8(0b110000), data, data, data)
	// Seed the arbitrary datagrams with the block's own repairs, so the
	// fuzzer starts from well-formed headers.
	dg, _ := rsBlock(f, data)
	f.Add(uint8(0b100100), data, dg[4], dg[5])
	f.Add(uint8(0b001000), data, dg[5], dg[1])

	f.Fuzz(func(t *testing.T, erase uint8, data, a, b []byte) {
		if len(data) > 4096 {
			data = data[:4096] // keep every payload codable
		}
		dgrams, payloads := rsBlock(t, data)
		erase &= 0b111111
		for bits.OnesCount8(erase) > 2 {
			erase &= erase - 1 // keep at most r erasures
		}
		dec := NewDecoder()
		want := make(map[string]int)
		for _, p := range payloads {
			want[string(p)]++
		}
		for i, d := range dgrams {
			if erase&(1<<i) != 0 {
				continue
			}
			outs, err := dec.Push(d)
			if err != nil {
				t.Fatalf("push %d of a valid block: %v", i, err)
			}
			for _, o := range outs {
				if want[string(o)] == 0 {
					t.Fatalf("erasures %06b: delivered %q, not one of the block's payloads", erase, o)
				}
				want[string(o)]--
			}
		}
		for p, n := range want {
			if n != 0 {
				t.Fatalf("erasures %06b: payload %q not delivered", erase, p)
			}
		}

		half := NewDecoder()
		for _, d := range dgrams[:2] {
			if _, err := half.Push(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range [][]byte{a, b} {
			dec.Push(d)
			half.Push(d)
		}
	})
}
