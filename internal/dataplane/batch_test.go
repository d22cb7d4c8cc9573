package dataplane

import (
	"bytes"
	"sync"
	"testing"

	"hpfq/internal/topo"
)

// discardBatch is a Writer that accepts everything and retains nothing.
type discardBatch struct{ pkts int }

func (w *discardBatch) WriteBatch(pkts []Datagram) (int, error) {
	w.pkts += len(pkts)
	return len(pkts), nil
}

// TestPumpSteadyStateZeroAlloc pins the batched pump's steady-state
// allocation count at zero: with a buffer pool configured, one full
// ingress → schedule → collect → batched write → release cycle must not
// allocate once the pools and scratch buffers are warm — in flat mode and
// over a topology, where hier.Tree pins the last dequeued head. The pump is
// driven synchronously (collectBatch + writeInflight on the test
// goroutine) so the measurement sees only the data path.
func TestPumpSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	top, err := topo.Parse("root=1(a=1(x=1:0,y=2:1),b=1:2)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opts    []Option
		classes int
	}{
		{"flat", nil, 1},
		{"topology", []Option{WithTopology(top)}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewBufferPool(256)
			d, err := New("WF2Q+", 1e9, append(tc.opts, WithBufferPool(pool), WithBurst(1e18))...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opts == nil {
				if err := d.AddClass(0, 1e9); err != nil {
					t.Fatal(err)
				}
			}
			sink := &discardBatch{}
			d.bw = sink // drive the pump inline; Start is never called

			last := d.clock.Since(d.epoch)
			run := func() {
				for i := 0; i < 64; i++ {
					b := pool.Get()
					b[0] = byte(i)
					if err := d.Ingest(i%tc.classes, b[:100]); err != nil {
						t.Fatal(err)
					}
				}
				d.collectBatch(1e18, &last)
				d.writeInflight()
			}
			run()
			run() // warm the buffer pool, the envelope free list and the scratch arrays
			if avg := testing.AllocsPerRun(50, run); avg != 0 {
				t.Fatalf("steady-state pump allocates %g times per cycle, want 0", avg)
			}
			if sink.pkts == 0 {
				t.Fatal("no datagrams reached the writer; the measurement is vacuous")
			}
		})
	}
}

// TestPoolAliasingStress hammers the pooled path from four concurrent
// producers through the scheduler into a pooled Pipe and checks every
// delivered datagram for tearing: each payload is filled with one uniform
// byte value, so any buffer recycled while still in flight — by the engine,
// the pipe, or a producer — shows up as a mixed-value datagram. Run with
// -race for the full effect.
func TestPoolAliasingStress(t *testing.T) {
	const (
		producers   = 4
		perProducer = 500
	)
	pool := NewBufferPool(512)
	d, err := New("WF2Q+", 1e12, WithBufferPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < producers; c++ {
		if err := d.AddClass(c, 1e12/producers); err != nil {
			t.Fatal(err)
		}
	}
	pipe := NewPipePool(64, pool)
	if err := d.Start(pipe); err != nil {
		t.Fatal(err)
	}

	var read, torn int
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		buf := make([]byte, 1024)
		for {
			n, err := pipe.ReadPacket(buf)
			if err != nil {
				return
			}
			for j := 1; j < n; j++ {
				if buf[j] != buf[0] {
					torn++
					break
				}
			}
			read++
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b := pool.Get()[:64]
				fill := byte(class*31 + i)
				for j := range b {
					b[j] = fill
				}
				if err := d.Ingest(class, b); err != nil {
					t.Errorf("class %d ingest %d: %v", class, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	<-consumed

	if torn > 0 {
		t.Fatalf("%d of %d datagrams torn: a pooled buffer was recycled while in flight", torn, read)
	}
	if want := producers * perProducer; read != want {
		t.Fatalf("read %d datagrams, want %d (nothing drops on this path)", read, want)
	}
}

// TestPipePoolRecycles: the pool-aware Pipe borrows every transit buffer
// from its pool and returns it on read — steady-state transfer recycles a
// couple of buffers instead of allocating per datagram (the old
// append-copy). Oversized datagrams fall back to a plain allocation, still
// round-trip intact, and never enter the pool: the pool's next Get is still
// one of its own buffers.
func TestPipePoolRecycles(t *testing.T) {
	pool := NewBufferPool(128)
	p := NewPipePool(8, pool)
	defer p.Close()

	const n = 50
	buf := make([]byte, 256)
	for i := 0; i < n; i++ {
		msg := []byte{byte(i), 1, 2, 3}
		if _, err := p.WritePacket(msg); err != nil {
			t.Fatal(err)
		}
		nn, err := p.ReadPacket(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:nn], msg) {
			t.Fatalf("round %d: got %v, want %v", i, buf[:nn], msg)
		}
	}
	st := pool.Stats()
	if st.Gets != n || st.Puts != n {
		t.Errorf("pool gets=%d puts=%d, want %d each (every transit buffer borrowed and returned)",
			st.Gets, st.Puts, n)
	}
	if st.Allocs >= n/2 {
		t.Errorf("pool allocated %d buffers for %d transfers; the pipe is not recycling", st.Allocs, n)
	}

	// Oversized payloads bypass the pool but still arrive whole.
	big := bytes.Repeat([]byte{7}, 200)
	if _, err := p.WritePacket(big); err != nil {
		t.Fatal(err)
	}
	nn, err := p.ReadPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:nn], big) {
		t.Fatalf("oversized datagram corrupted: %d bytes, want %d", nn, len(big))
	}
	if after := pool.Stats(); after.Gets != st.Gets || after.Puts != st.Puts {
		t.Errorf("oversized datagram moved the pool: gets %d→%d puts %d→%d, want no traffic",
			st.Gets, after.Gets, st.Puts, after.Puts)
	}
	if b := pool.Get(); len(b) != pool.Size() || cap(b) != pool.Size() {
		t.Errorf("pool handed out a %d/%d-byte buffer after an oversized datagram, want its own %d",
			len(b), cap(b), pool.Size())
	}
}

// TestBufferPoolBasics covers the pool contract: Get yields size-length
// buffers, Put recycles (reslicing whatever length the caller left), and
// undersized foreign buffers are dropped rather than poisoning the pool.
func TestBufferPoolBasics(t *testing.T) {
	p := NewBufferPool(64)
	if p.Size() != 64 {
		t.Fatalf("Size = %d, want 64", p.Size())
	}
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("Get length %d, want 64", len(b))
	}
	p.Put(b[:3]) // short reslice must come back full-length
	b2 := p.Get()
	if len(b2) != 64 {
		t.Fatalf("recycled Get length %d, want 64", len(b2))
	}
	p.Put(make([]byte, 8)) // undersized: dropped
	st := p.Stats()
	if st.Gets != 2 {
		t.Errorf("Gets = %d, want 2", st.Gets)
	}
	if st.Puts != 1 {
		t.Errorf("Puts = %d, want 1 (the undersized Put is discarded)", st.Puts)
	}
	if NewBufferPool(0).Size() != MaxDatagramSize {
		t.Error("non-positive size did not default to MaxDatagramSize")
	}
}

// TestShortBatchIsTransient: a Writer reporting a short batch without an
// error is stalling, not failing — the pump must retry the suffix, never
// drop it.
func TestShortBatchIsTransient(t *testing.T) {
	if !isTransient(errShortBatch) {
		t.Error("errShortBatch not transient; a stalling writer would be dropped instead of retried")
	}
}
