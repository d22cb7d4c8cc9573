package faultconn

import (
	"errors"
	"testing"
)

// memWriter records every datagram forwarded to it.
type memWriter struct {
	got [][]byte
}

func (w *memWriter) WritePacket(b []byte) (int, error) {
	w.got = append(w.got, append([]byte(nil), b...))
	return len(b), nil
}

// memReader replays a fixed sequence of datagrams, then errors.
type memReader struct {
	msgs [][]byte
	i    int
}

var errDrained = errors.New("drained")

func (r *memReader) ReadPacket(buf []byte) (int, error) {
	if r.i >= len(r.msgs) {
		return 0, errDrained
	}
	n := copy(buf, r.msgs[r.i])
	r.i++
	return n, nil
}

func runWrites(w *Writer, n int) (ok, transient, short int) {
	b := make([]byte, 100)
	for i := 0; i < n; i++ {
		_, err := w.WritePacket(b)
		var inj *InjectedError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &inj):
			transient++
		case errors.Is(err, ErrShortWrite):
			short++
		}
	}
	return
}

// TestDeterministic: two writers with the same seed inject the identical
// fault sequence; a different seed diverges.
func TestDeterministic(t *testing.T) {
	mk := func(seed int64) Stats {
		w := NewWriter(&memWriter{}, WithSeed(seed), WithErrorRate(0.3), WithShortWrites(0.2), WithDropRate(0.1))
		runWrites(w, 500)
		return w.Stats()
	}
	a, b := mk(7), mk(7)
	if a != b {
		t.Errorf("same seed, different fault sequence: %+v vs %+v", a, b)
	}
	if c := mk(8); c == a {
		t.Errorf("different seeds produced identical stats %+v", c)
	}
}

// TestErrorRate: the injected transient error count lands near the
// configured probability and the errors mark themselves transient.
func TestErrorRate(t *testing.T) {
	inner := &memWriter{}
	w := NewWriter(inner, WithSeed(1), WithErrorRate(0.2))
	ok, transient, _ := runWrites(w, 1000)
	if transient < 120 || transient > 280 {
		t.Errorf("injected %d transient errors in 1000 ops at p=0.2", transient)
	}
	if ok+transient != 1000 {
		t.Errorf("ok=%d transient=%d, want them to partition 1000 ops", ok, transient)
	}
	if len(inner.got) != ok {
		t.Errorf("inner saw %d datagrams, %d writes succeeded", len(inner.got), ok)
	}
	st := w.Stats()
	if st.Ops != 1000 || int(st.Transient) != transient {
		t.Errorf("stats %+v disagree with observed transient=%d", st, transient)
	}
}

// TestErrorEvery: the cadence knob fails exactly every nth operation.
func TestErrorEvery(t *testing.T) {
	w := NewWriter(&memWriter{}, WithErrorEvery(3))
	b := make([]byte, 10)
	for i := 1; i <= 9; i++ {
		_, err := w.WritePacket(b)
		if wantErr := i%3 == 0; (err != nil) != wantErr {
			t.Errorf("op %d: err=%v, want error=%v", i, err, wantErr)
		}
	}
	if st := w.Stats(); st.Transient != 3 {
		t.Errorf("transient = %d, want 3", st.Transient)
	}
}

// TestShortWrite: a short write reports a partial length with ErrShortWrite
// and forwards nothing, so a retry resends the whole datagram.
func TestShortWrite(t *testing.T) {
	inner := &memWriter{}
	w := NewWriter(inner, WithShortWrites(1))
	n, err := w.WritePacket(make([]byte, 100))
	if !errors.Is(err, ErrShortWrite) || n != 50 {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	if len(inner.got) != 0 {
		t.Error("short write leaked a truncated datagram to the inner writer")
	}
}

// TestDropRate: dropped writes report success without reaching the inner
// writer.
func TestDropRate(t *testing.T) {
	inner := &memWriter{}
	w := NewWriter(inner, WithSeed(3), WithDropRate(0.5))
	b := make([]byte, 64)
	for i := 0; i < 200; i++ {
		if _, err := w.WritePacket(b); err != nil {
			t.Fatalf("drop-only plan returned error: %v", err)
		}
	}
	st := w.Stats()
	if st.Dropped == 0 || st.Dropped > 160 {
		t.Errorf("dropped %d of 200 at p=0.5", st.Dropped)
	}
	if uint64(len(inner.got))+st.Dropped != 200 {
		t.Errorf("inner got %d + dropped %d != 200", len(inner.got), st.Dropped)
	}
}

// TestReaderFaults: transient read errors surface without consuming input;
// read drops consume a datagram invisibly.
func TestReaderFaults(t *testing.T) {
	msgs := [][]byte{{1}, {2}, {3}, {4}}
	r := NewReader(&memReader{msgs: msgs}, WithErrorEvery(2))
	buf := make([]byte, 16)
	var got []byte
	var transient int
	for {
		n, err := r.ReadPacket(buf)
		if err != nil {
			var inj *InjectedError
			if errors.As(err, &inj) {
				transient++
				continue
			}
			if errors.Is(err, errDrained) {
				break
			}
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != string([]byte{1, 2, 3, 4}) {
		t.Errorf("reader delivered %v, want all four datagrams", got)
	}
	if transient == 0 {
		t.Error("no transient read errors injected")
	}

	// Drop every datagram: the reader re-reads until the source fails.
	r = NewReader(&memReader{msgs: msgs}, WithDropRate(1))
	if _, err := r.ReadPacket(buf); !errors.Is(err, errDrained) {
		t.Errorf("all-drop read: %v, want source exhaustion", err)
	}
	if st := r.Stats(); st.Dropped != 4 {
		t.Errorf("dropped %d, want 4", st.Dropped)
	}
}

// TestWriteBatchMatchesPerPacket: batching is grouping, not a different
// fault plan. Driving the same payload sequence through WriteBatch (in
// chunks, resuming past each failed element exactly as a per-packet loop
// would) must produce identical fault stats and forward the identical
// datagrams as one WritePacket per payload under the same seed.
func TestWriteBatchMatchesPerPacket(t *testing.T) {
	const n = 300
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i >> 8)}
	}
	opts := func() []Option {
		return []Option{WithSeed(11), WithErrorRate(0.25), WithShortWrites(0.1), WithDropRate(0.1)}
	}

	pp := &memWriter{}
	wp := NewWriter(pp, opts()...)
	for _, b := range payloads {
		wp.WritePacket(b)
	}

	bb := &memWriter{}
	wb := NewWriter(bb, opts()...)
	for start := 0; start < n; {
		end := start + 8
		if end > n {
			end = n
		}
		m, err := wb.WriteBatch(payloads[start:end])
		start += m
		if err != nil {
			start++ // the failed element consumed its operation; move on like the loop above
		}
	}

	if ws, bs := wp.Stats(), wb.Stats(); ws != bs {
		t.Errorf("fault stats diverge: per-packet %+v, batched %+v", ws, bs)
	}
	if len(pp.got) != len(bb.got) {
		t.Fatalf("forwarded %d per-packet vs %d batched", len(pp.got), len(bb.got))
	}
	for i := range pp.got {
		if string(pp.got[i]) != string(bb.got[i]) {
			t.Fatalf("datagram %d diverges: %v vs %v", i, pp.got[i], bb.got[i])
		}
	}
	if st := wb.Stats(); st.Transient == 0 || st.ShortWrites == 0 || st.Dropped == 0 {
		t.Errorf("plan injected nothing (%+v); the comparison is vacuous", st)
	}
}

// TestReaderReadBatch: the fault-wrapped reader batches at width 1 — one
// datagram per call with bufs[0] resliced to its length — and surfaces
// injected errors without consuming input, keeping the fault sequence
// identical to ReadPacket.
func TestReaderReadBatch(t *testing.T) {
	msgs := [][]byte{{1, 10}, {2, 20, 200}, {3}}
	r := NewReader(&memReader{msgs: msgs}, WithErrorEvery(2))

	if n, err := r.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", n, err)
	}

	var got [][]byte
	var transient int
	for {
		bufs := [][]byte{make([]byte, 16), make([]byte, 16)}
		n, err := r.ReadBatch(bufs)
		if err != nil {
			var inj *InjectedError
			if errors.As(err, &inj) {
				transient++
				continue
			}
			if errors.Is(err, errDrained) {
				break
			}
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("ReadBatch delivered %d datagrams, want exactly 1", n)
		}
		got = append(got, bufs[0])
	}
	if len(got) != len(msgs) {
		t.Fatalf("delivered %d datagrams, want %d (injected errors must not consume input)", len(got), len(msgs))
	}
	for i := range msgs {
		if string(got[i]) != string(msgs[i]) {
			t.Errorf("datagram %d = %v, want %v (reslicing must preserve length)", i, got[i], msgs[i])
		}
	}
	if transient == 0 {
		t.Error("no transient errors injected through ReadBatch")
	}
}
