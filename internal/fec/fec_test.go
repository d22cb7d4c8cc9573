package fec

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestGF256Field(t *testing.T) {
	// Multiplicative inverses round-trip for every non-zero element.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d", got, a)
		}
	}
	// Distributivity spot-check on a pseudorandom sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity fails for %d,%d", a, b)
		}
	}
	if gfDiv(0, 7) != 0 || gfMul(0, 9) != 0 {
		t.Fatal("zero absorption broken")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"xor-8", Spec{SchemeXOR, 8, 1}, true},
		{"rs-8-2", Spec{SchemeRS, 8, 2}, true},
		{"rs:16:4", Spec{SchemeRS, 16, 4}, true},
		{"RS-4-2", Spec{SchemeRS, 4, 2}, true},
		{"xor-8-2", Spec{}, false}, // xor is single-parity
		{"rs-8", Spec{SchemeRS, 8, 1}, true},
		{"rs-0-2", Spec{}, false},
		{"rs-8-99", Spec{}, false},
		{"fountain-8-2", Spec{}, false},
		{"rs", Spec{}, false},
		{"", Spec{}, false},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSpec(%q) err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// String round-trips through ParseSpec.
	for _, s := range []Spec{{SchemeXOR, 8, 1}, {SchemeRS, 8, 2}, {SchemeRS, 32, 8}} {
		rt, err := ParseSpec(s.String())
		if err != nil || rt != s {
			t.Fatalf("round-trip %v -> %q -> %v (%v)", s, s.String(), rt, err)
		}
	}
}

// reconstructAll checks that every erasure pattern of up to r missing
// sources decodes exactly, given all repairs.
func testAllErasures(t *testing.T, spec Spec, symLen int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	k, r := spec.K, spec.R
	orig := make([][]byte, k)
	for i := range orig {
		orig[i] = make([]byte, symLen)
		rng.Read(orig[i])
	}
	cd, err := newCode(spec)
	if err != nil {
		t.Fatal(err)
	}
	repairs := make([][]byte, r)
	for j := range repairs {
		repairs[j] = make([]byte, symLen)
	}
	cd.encode(orig, repairs)

	// Enumerate erasure sets of size ≤ r (sources only; repair loss is
	// covered by dropRepairs below).
	var patterns [][]int
	var gen func(start int, cur []int)
	gen = func(start int, cur []int) {
		if len(cur) > 0 {
			patterns = append(patterns, append([]int(nil), cur...))
		}
		if len(cur) == r {
			return
		}
		for i := start; i < k; i++ {
			gen(i+1, append(cur, i))
		}
	}
	gen(0, nil)

	for _, missing := range patterns {
		sources := make([][]byte, k)
		for i := range sources {
			sources[i] = orig[i]
		}
		for _, i := range missing {
			sources[i] = nil
		}
		reps := make([][]byte, r)
		for j := range reps {
			reps[j] = append([]byte(nil), repairs[j]...)
		}
		// Drop repairs too, keeping just enough symbols.
		drop := r - len(missing)
		for j := 0; j < drop; j++ {
			reps[j] = nil
		}
		if err := cd.reconstruct(sources, reps); err != nil {
			t.Fatalf("%v erasures %v: %v", spec, missing, err)
		}
		for _, i := range missing {
			if !bytes.Equal(sources[i], orig[i]) {
				t.Fatalf("%v erasures %v: source %d mismatch", spec, missing, i)
			}
		}
	}
}

func TestXORAllSingleErasures(t *testing.T) { testAllErasures(t, Spec{SchemeXOR, 8, 1}, 100) }

func TestRSAllErasurePatterns(t *testing.T) {
	for _, spec := range []Spec{
		{SchemeRS, 4, 2},
		{SchemeRS, 8, 2},
		{SchemeRS, 8, 3},
		{SchemeRS, 5, 4},
		{SchemeRS, 8, 1}, // degenerate parity row
	} {
		t.Run(spec.String(), func(t *testing.T) { testAllErasures(t, spec, 64) })
	}
}

func TestRSTooManyErasuresFails(t *testing.T) {
	spec := Spec{SchemeRS, 4, 2}
	cd, _ := newCode(spec)
	sources := [][]byte{nil, nil, nil, {1, 2}}
	repairs := [][]byte{{0, 0}, {0, 0}}
	if err := cd.reconstruct(sources, repairs); err == nil {
		t.Fatal("3 erasures with 2 repairs should fail")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	for _, spec := range []Spec{{SchemeXOR, 4, 1}, {SchemeRS, 8, 2}} {
		t.Run(spec.String(), func(t *testing.T) {
			enc, err := NewEncoder(7, spec)
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder()
			rng := rand.New(rand.NewSource(3))

			var sent [][]byte // FEC datagrams in emit order
			var want [][]byte
			for i := 0; i < spec.K*3; i++ { // three full blocks
				payload := make([]byte, 20+rng.Intn(200))
				rng.Read(payload)
				want = append(want, payload)
				dst := make([]byte, SourceOverhead+len(payload))
				n, full, err := enc.AddSource(payload, dst)
				if err != nil {
					t.Fatal(err)
				}
				sent = append(sent, dst[:n])
				if full {
					for _, rep := range enc.Flush(func(n int) []byte { return make([]byte, n) }) {
						sent = append(sent, rep)
					}
				}
			}

			// Drop up to spec.R sources per block, delivered in order.
			var got [][]byte
			dropped := 0
			for i, d := range sent {
				if dropped < spec.R && i%(spec.K+spec.R) < spec.K && i%(spec.K+spec.R)%3 == 1 {
					h, _ := parseHeader(d)
					if !h.repair {
						dropped++
						continue
					}
				}
				outs, err := dec.Push(d)
				if err != nil {
					t.Fatalf("Push: %v", err)
				}
				for _, o := range outs {
					got = append(got, append([]byte(nil), o...))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("delivered %d payloads, want %d (stats %+v)", len(got), len(want), dec.Stats())
			}
			// Delivery may reorder recovered payloads; compare as sets.
			remaining := make(map[string]int)
			for _, w := range want {
				remaining[string(w)]++
			}
			for _, g := range got {
				if remaining[string(g)] == 0 {
					t.Fatalf("unexpected payload delivered")
				}
				remaining[string(g)]--
			}
			if st := dec.Stats(); st.Recovered == 0 {
				t.Fatalf("expected recoveries, stats %+v", st)
			}
		})
	}
}

func TestEncoderPartialFlush(t *testing.T) {
	enc, _ := NewEncoder(1, Spec{SchemeRS, 8, 2})
	dec := NewDecoder()
	payloads := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	var frames [][]byte
	for _, p := range payloads {
		dst := make([]byte, SourceOverhead+len(p))
		n, full, err := enc.AddSource(p, dst)
		if err != nil || full {
			t.Fatalf("n=%d full=%v err=%v", n, full, err)
		}
		frames = append(frames, dst[:n])
	}
	reps := enc.Flush(func(n int) []byte { return make([]byte, n) })
	if len(reps) != 2 {
		t.Fatalf("partial flush emitted %d repairs, want 2", len(reps))
	}
	if h, err := parseHeader(reps[0]); err != nil || h.k != 3 || h.r != 2 {
		t.Fatalf("partial repair header k=%d r=%d err=%v, want k=3 r=2", h.k, h.r, err)
	}
	// Lose two of three sources; both repairs recover them.
	var got [][]byte
	for _, d := range [][]byte{frames[1], reps[0], reps[1]} {
		outs, err := dec.Push(d)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, outs...)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d payloads, want 3", len(got))
	}
	if enc.Pending() != 0 {
		t.Fatalf("Pending after flush = %d", enc.Pending())
	}
	if enc.Flush(func(n int) []byte { return make([]byte, n) }) != nil {
		t.Fatal("empty flush should emit nothing")
	}
}

func TestEncoderRetuneAtBlockBoundary(t *testing.T) {
	enc, _ := NewEncoder(1, Spec{SchemeRS, 4, 1})
	if err := enc.Retune(Spec{SchemeRS, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if enc.Spec().K != 4 {
		t.Fatal("retune must not apply mid-block")
	}
	dst := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if _, _, err := enc.AddSource([]byte{byte(i)}, dst); err != nil {
			t.Fatal(err)
		}
	}
	enc.Flush(func(n int) []byte { return make([]byte, n) })
	if got := enc.Spec(); got != (Spec{SchemeRS, 2, 2}) {
		t.Fatalf("after boundary spec = %v", got)
	}
	if err := enc.Retune(Spec{Scheme: "bogus", K: 4, R: 1}); err == nil {
		t.Fatal("invalid retune accepted")
	}
}

func TestDecoderPassthroughAndDuplicates(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Push([]byte("plain udp datagram")); err != ErrNotFEC {
		t.Fatalf("want ErrNotFEC, got %v", err)
	}
	enc, _ := NewEncoder(9, Spec{SchemeXOR, 2, 1})
	dst := make([]byte, 64)
	n, _, _ := enc.AddSource([]byte("hi"), dst)
	frame := append([]byte(nil), dst[:n]...)
	if _, err := dec.Push(frame); err != nil {
		t.Fatal(err)
	}
	if out, err := dec.Push(frame); err != nil || out != nil {
		t.Fatalf("duplicate delivered: out=%v err=%v", out, err)
	}
	if st := dec.Stats(); st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d", st.Duplicates)
	}
}

func TestDecoderWindowEviction(t *testing.T) {
	enc, _ := NewEncoder(1, Spec{SchemeXOR, 2, 1})
	dec := NewDecoder()
	// Push one source of each block (second source + parity "lost") for
	// enough blocks to overflow the window.
	for b := 0; b < DefaultDecodeWindow+5; b++ {
		dst := make([]byte, 64)
		n, _, err := enc.AddSource([]byte{byte(b)}, dst)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := enc.AddSource([]byte{byte(b), 1}, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		enc.Flush(func(n int) []byte { return make([]byte, n) })
		if _, err := dec.Push(dst[:n]); err != nil {
			t.Fatal(err)
		}
	}
	st := dec.Stats()
	if st.Unrecoverable != 5 {
		t.Fatalf("Unrecoverable = %d, want 5 (stats %+v)", st.Unrecoverable, st)
	}
	if est := dec.LossEstimate(); est <= 0.5 {
		t.Fatalf("loss estimate %v, want > 0.5 (2 of 3 datagrams lost)", est)
	}
}

func TestControllerTracksLoss(t *testing.T) {
	base := Spec{SchemeRS, 8, 1}
	c, err := NewController(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Tune(); got != base {
		t.Fatalf("idle controller tuned to %v", got)
	}
	// Sustained 10% loss: with 1.5 headroom the code needs ≥ 15% overhead.
	for i := 0; i < 50; i++ {
		c.Observe(0.10)
	}
	got := c.Tune()
	if got.Overhead() < 0.15-1e-9 {
		t.Fatalf("overhead %.3f < target 0.15 (spec %v)", got.Overhead(), got)
	}
	if got.R < 2 {
		t.Fatalf("sustained 10%% loss should raise r above 1, got %v", got)
	}
	// Loss subsides: controller relaxes back to base.
	for i := 0; i < 100; i++ {
		c.Observe(0)
	}
	if got := c.Tune(); got != base {
		t.Fatalf("controller did not relax to base: %v", got)
	}
}

func TestControllerXORShrinksK(t *testing.T) {
	c, err := NewController(Spec{SchemeXOR, 16, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Observe(0.10)
	}
	got := c.Tune()
	if got.R != 1 {
		t.Fatalf("xor controller changed r: %v", got)
	}
	if got.K >= 16 {
		t.Fatalf("xor controller should shrink k under loss, got %v", got)
	}
	if got.Overhead() < 0.15-1e-9 {
		t.Fatalf("overhead %.3f < 0.15 (spec %v)", got.Overhead(), got)
	}
}

// TestControllerRespectsBounds: under catastrophic loss the controller stays
// inside the bounds it derives from its base spec — k never below 2 nor
// above base k, r never above MaxR.
func TestControllerRespectsBounds(t *testing.T) {
	c, err := NewController(Spec{SchemeRS, 8, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Observe(0.9) // catastrophic loss; target clamps at 50% overhead
	}
	got := c.Tune()
	if got.R > MaxR || got.K < 2 || got.K > 8 {
		t.Fatalf("bounds violated: %v", got)
	}
}

// TestControllerSingleSource: a base spec with k = 1 is valid, so the
// controller accepts it — its lowest k is min(2, k) — and keeps k = 1
// under loss, growing r where the scheme allows.
func TestControllerSingleSource(t *testing.T) {
	for _, s := range []string{"xor-1", "rs-1-1", "rs-1-2"} {
		base, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(base)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for i := 0; i < 50; i++ {
			c.Observe(0.3)
		}
		got := c.Tune()
		if got.K != 1 || got.Overhead() < base.Overhead() {
			t.Fatalf("%s: tuned to %v under 30%% loss", s, got)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	dec := NewDecoder()
	bad := make([]byte, SourceOverhead)
	bad[0], bad[1] = magic0, magic1
	bad[2] = 7 // unknown type
	bad[10], bad[11] = 4, 1
	if _, err := dec.Push(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	bad[2] = typeSource
	bad[9] = 9 // index ≥ k
	if _, err := dec.Push(bad); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if !IsFEC(bad) {
		t.Fatal("IsFEC should match the magic regardless of validity")
	}
	if IsFEC([]byte{1, 2, 3}) {
		t.Fatal("IsFEC matched garbage")
	}
}

func BenchmarkRSEncode(b *testing.B) {
	for _, spec := range []Spec{{SchemeRS, 8, 2}, {SchemeRS, 32, 8}} {
		b.Run(spec.String(), func(b *testing.B) {
			symLen := 1200
			sources := make([][]byte, spec.K)
			rng := rand.New(rand.NewSource(1))
			for i := range sources {
				sources[i] = make([]byte, symLen)
				rng.Read(sources[i])
			}
			repairs := make([][]byte, spec.R)
			for j := range repairs {
				repairs[j] = make([]byte, symLen)
			}
			cd, _ := newCode(spec)
			b.SetBytes(int64(spec.K * symLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, rep := range repairs {
					for k := range rep {
						rep[k] = 0
					}
				}
				cd.encode(sources, repairs)
			}
		})
	}
}

func BenchmarkRSReconstruct(b *testing.B) {
	spec := Spec{SchemeRS, 8, 2}
	symLen := 1200
	rng := rand.New(rand.NewSource(1))
	orig := make([][]byte, spec.K)
	for i := range orig {
		orig[i] = make([]byte, symLen)
		rng.Read(orig[i])
	}
	repairs := make([][]byte, spec.R)
	for j := range repairs {
		repairs[j] = make([]byte, symLen)
	}
	cd, _ := newCode(spec)
	cd.encode(orig, repairs)
	b.SetBytes(int64(2 * symLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources := make([][]byte, spec.K)
		copy(sources, orig)
		sources[1], sources[5] = nil, nil
		if err := cd.reconstruct(sources, repairs); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleParseSpec() {
	spec, _ := ParseSpec("rs-8-2")
	fmt.Printf("%s overhead %.0f%%\n", spec, spec.Overhead()*100)
	// Output: rs-8-2 overhead 20%
}

// TestDecoderForgedRepairLength: repairs of one block that disagree on the
// symbol length are refused, and a block whose reconstruction fails stays
// as it was. Before both rules, the four datagrams below made the decoder
// reframe a half-recovered block to the forged length and index past the
// shorter symbols (a panic on attacker bytes).
func TestDecoderForgedRepairLength(t *testing.T) {
	// Symbols of an RS(3,3) block whose third source frames an impossible
	// length, so reconstructing sources 1 and 2 fails on source 2.
	syms := [][]byte{
		{0, 20, 'x', 'x', 'x', 'x', 'x', 'x'}, // source 0 truncated to the symbol
		{0, 2, 'd', 'e', 0, 0, 0, 0},
		{0xff, 0xff, 1, 2, 3, 4, 5, 6},
	}
	reps := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	newRSCode(3, 3).encode(syms, reps)
	repair := func(idx int, sym []byte) []byte {
		b := make([]byte, RepairOverhead+len(sym))
		putHeader(b, header{repair: true, stream: 9, block: 1, index: idx, k: 3, r: 3})
		b[12], b[13] = byte(len(sym)>>8), byte(len(sym))
		copy(b[RepairOverhead:], sym)
		return b
	}
	src := make([]byte, SourceOverhead+20)
	putHeader(src, header{stream: 9, block: 1, index: 0, k: 3, r: 3})
	copy(src[SourceOverhead:], bytes.Repeat([]byte{'x'}, 20))

	dec := NewDecoder()
	for i, d := range [][]byte{src, repair(0, reps[0])} {
		if _, err := dec.Push(d); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if out, err := dec.Push(repair(1, reps[1])); err == nil || len(out) != 0 {
		t.Fatalf("corrupt reconstruction = (%d payloads, %v), want an error and nothing delivered", len(out), err)
	}
	if bs := dec.streams[9].blocks[1]; bs.nSrc != 1 || bs.payloads[1] != nil {
		t.Fatalf("failed reconstruction left %d sources (payload 1 %q), want the block as it was", bs.nSrc, bs.payloads[1])
	}
	if _, err := dec.Push(repair(2, make([]byte, 400))); err == nil || !strings.Contains(err.Error(), "symbol length") {
		t.Fatalf("repair with a forged symbol length: %v, want a refusal", err)
	}
}
