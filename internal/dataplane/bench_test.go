package dataplane

import (
	"sync/atomic"
	"testing"

	"hpfq/internal/topo"
)

// BenchmarkPumpBatched measures one datagram's trip through
// ingress → schedule → collect → write: DefaultBatchSize chunks with every
// payload buffer recycled through the pool. It drives the pump
// synchronously into a counting writer on the same goroutine, so the figure
// is the data path, not goroutine scheduling.
func BenchmarkPumpBatched(b *testing.B) {
	pool := NewBufferPool(256)
	d, err := New("WF2Q+", 1e9, WithBurst(1e18), WithBufferPool(pool))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.AddClass(0, 1e9); err != nil {
		b.Fatal(err)
	}
	sink := &discardBatch{}
	d.bw = sink // driven inline; Start is never called

	last := d.clock.Since(d.epoch)
	const chunk = 64
	b.ReportAllocs()
	b.ResetTimer()
	for rem := b.N; rem > 0; {
		n := min(chunk, rem)
		rem -= n
		for j := 0; j < n; j++ {
			buf := pool.Get()[:100]
			buf[0] = byte(j)
			if err := d.Ingest(0, buf); err != nil {
				b.Fatal(err)
			}
		}
		d.collectBatch(1e18, &last)
		d.writeInflight()
	}
	b.StopTimer()
	if sink.pkts != b.N {
		b.Fatalf("wrote %d datagrams, want %d", sink.pkts, b.N)
	}
}

// progressWriter counts delivered datagrams and signals progress after
// every batch, so a producer can wait for window room without polling.
type progressWriter struct {
	n        atomic.Int64
	progress chan struct{} // buffered(1): a pending signal is enough
}

func (w *progressWriter) WriteBatch(pkts []Datagram) (int, error) {
	w.n.Add(int64(len(pkts)))
	select {
	case w.progress <- struct{}{}:
	default:
	}
	return len(pkts), nil
}

// BenchmarkPumpTree measures the deep-tree path with the producer and the
// pump on their own goroutines: the benchmark goroutine ingests pooled
// 64-byte datagrams over every leaf of a 4096-leaf (16×16×16) WF²Q+ tree,
// keeping at most a 1024-datagram window outstanding, while the Start-ed
// pump stages, schedules and writes them. Pacing never binds. ns/op is per
// datagram, from the first Ingest to the last write.
func BenchmarkPumpTree(b *testing.B) {
	const (
		leaves = 16 * 16 * 16
		window = 1024
	)
	top, err := topo.Parse(deepTreeSpec(16))
	if err != nil {
		b.Fatal(err)
	}
	pool := NewBufferPool(64)
	d, err := New("WF2Q+", 1e12, WithTopology(top), WithBurst(1e12), WithBufferPool(pool))
	if err != nil {
		b.Fatal(err)
	}
	w := &progressWriter{progress: make(chan struct{}, 1)}
	if err := d.Start(w); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-w.n.Load() >= window {
			<-w.progress
		}
		buf := pool.Get()[:64]
		if err := d.Ingest(i*2731%leaves, buf); err != nil { // 2731 is odd: a permutation of the leaves
			b.Fatal(err)
		}
	}
	for w.n.Load() < int64(b.N) {
		<-w.progress
	}
	b.StopTimer()
}

// BenchmarkNewDeepTree measures building an engine over the 4096-leaf
// (16×16×16) WF²Q+ topology with metrics and tracing off: the set-up that
// perfbench's engine_deep pays per launch, from a parsed topology.
func BenchmarkNewDeepTree(b *testing.B) {
	top, err := topo.Parse(deepTreeSpec(16))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New("WF2Q+", 1e12, WithTopology(top), WithBurst(1e12))
		if err != nil {
			b.Fatal(err)
		}
		d.Close()
	}
}

// maxNewDeepTreeAllocs bounds the allocations of BenchmarkNewDeepTree's
// build: the tree takes its nodes from one slab and sizes every table once,
// so what remains is per interior node (its scheduler, policy, slot table
// and registrations) plus a fixed handful — about 1 110 on the 273 interior
// nodes of the 4096-leaf tree.
const maxNewDeepTreeAllocs = 2000

// maxNewDeepTreeBytes bounds the bytes the same build allocates, about
// 1.82 MB: every table is sized once to the tree, and the build fills no
// hash map (DESIGN.md S41).
const maxNewDeepTreeBytes = 1_850_000

// TestNewDeepTreeAllocs gates the allocations and the bytes of building an
// engine over the 4096-leaf topology, so a per-node or per-leaf allocation
// or a table larger than the tree crept back into the build fails here.
func TestNewDeepTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	top, err := topo.Parse(deepTreeSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		d, err := New("WF2Q+", 1e12, WithTopology(top), WithBurst(1e12))
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
	})
	// The byte count is the benchmark's mean over its b.N builds, so what
	// another goroutine allocates meanwhile is spread across them.
	bytes := testing.Benchmark(BenchmarkNewDeepTree).AllocedBytesPerOp()
	t.Logf("%.0f allocs, %d bytes per 4096-leaf build", allocs, bytes)
	if allocs > maxNewDeepTreeAllocs {
		t.Fatalf("4096-leaf build: %.0f allocs, want <= %d", allocs, maxNewDeepTreeAllocs)
	}
	if bytes > maxNewDeepTreeBytes {
		t.Fatalf("4096-leaf build: %d bytes, want <= %d", bytes, maxNewDeepTreeBytes)
	}
}

// BenchmarkBufferPoolHandoff measures a buffer's round trip through the
// pool when Get and Put run on different goroutines, as an ingress reader
// and the pump do: the benchmark goroutine Gets, and a second goroutine
// returns each chunk of 32 buffers with one PutBatch. ns/op is per buffer.
func BenchmarkBufferPoolHandoff(b *testing.B) {
	const (
		chunk  = 32
		chunks = 4 // chunk slices in rotation between the two goroutines
	)
	p := NewBufferPool(64)
	empty := make(chan [][]byte, chunks) // sized to hold every chunk slice
	full := make(chan [][]byte, chunks)
	for i := 0; i < chunks; i++ {
		empty <- make([][]byte, 0, chunk)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for bufs := range full {
			p.PutBatch(bufs)
			clear(bufs)
			empty <- bufs[:0]
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	bufs := <-empty
	for i := 0; i < b.N; i++ {
		bufs = append(bufs, p.Get())
		if len(bufs) == chunk {
			full <- bufs
			bufs = <-empty
		}
	}
	full <- bufs
	close(full)
	<-done
}
