package dataplane

import (
	"sync/atomic"
	"testing"

	"hpfq/internal/topo"
)

// perPacketOnly hides the Pipe's batch methods so AsBatchWriter falls back
// to the per-datagram step adapter — reproducing the pre-batching pump
// contract over the same transport.
type perPacketOnly struct{ p *Pipe }

func (w perPacketOnly) WritePacket(b []byte) (int, error) { return w.p.WritePacket(b) }

// benchmarkPump measures one datagram's trip through
// ingress → schedule → collect → write over the in-memory pipe, driving the
// pump synchronously so the figure is the data path, not goroutine
// scheduling. A background drainer keeps the pipe from filling.
func benchmarkPump(b *testing.B, batchSize int, pooled bool, wrap func(*Pipe) Writer) {
	pool := NewBufferPool(256)
	opts := []Option{WithBurst(1e18), WithBatchSize(batchSize)}
	if pooled {
		opts = append(opts, WithBufferPool(pool))
	}
	d, err := New("WF2Q+", 1e9, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.AddClass(0, 1e9); err != nil {
		b.Fatal(err)
	}
	pipe := NewPipePool(4096, pool)
	d.bw = AsBatchWriter(wrap(pipe)) // driven inline; Start is never called

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 256)
		for {
			if _, err := pipe.ReadPacket(buf); err != nil {
				return
			}
		}
	}()

	last := d.clock.Now()
	const chunk = 64
	b.ReportAllocs()
	b.ResetTimer()
	for rem := b.N; rem > 0; {
		n := chunk
		if rem < n {
			n = rem
		}
		rem -= n
		for j := 0; j < n; j++ {
			var buf []byte
			if pooled {
				buf = pool.Get()[:100]
			} else {
				buf = make([]byte, 100) // the old path: one fresh buffer per datagram
			}
			buf[0] = byte(j)
			if err := d.Ingest(0, buf); err != nil {
				b.Fatal(err)
			}
		}
		d.collectBatch(1e18, &last)
		d.writeInflight()
	}
	b.StopTimer()
	pipe.Close()
	<-drained
}

// BenchmarkPumpPerPacket is the pre-refactor contract: batch size 1, a
// per-packet-only writer behind the step adapter, and a fresh allocation
// per ingested datagram.
func BenchmarkPumpPerPacket(b *testing.B) {
	benchmarkPump(b, 1, false, func(p *Pipe) Writer { return perPacketOnly{p} })
}

// BenchmarkPumpBatched is the batched pooled path: WithBatchSize chunks to
// a native BatchWriter with every payload buffer recycled through the pool.
func BenchmarkPumpBatched(b *testing.B) {
	benchmarkPump(b, 32, true, func(p *Pipe) Writer { return p })
}

// progressWriter counts delivered datagrams and signals progress after
// every batch, so a producer can wait for window room without polling.
type progressWriter struct {
	n        atomic.Int64
	progress chan struct{} // buffered(1): a pending signal is enough
}

func (w *progressWriter) WritePacket(b []byte) (int, error) {
	return w.WriteBatch([]Datagram{{B: b}})
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
