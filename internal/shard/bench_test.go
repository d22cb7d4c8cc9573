package shard

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hpfq/internal/dataplane"
	"hpfq/internal/wallclock"
)

// deliveredWriter counts delivered datagrams atomically and signals
// progress after every batch — the cheapest egress that still lets the
// harness wait for pump progress without polling.
type deliveredWriter struct {
	delivered *atomic.Int64
	progress  chan struct{} // buffered(1): a pending signal is enough
}

func (w deliveredWriter) WriteBatch(pkts []dataplane.Datagram) (int, error) {
	w.delivered.Add(int64(len(pkts)))
	select {
	case w.progress <- struct{}{}:
	default:
	}
	return len(pkts), nil
}

// BenchmarkShardedPump measures end-to-end pump throughput — staged ingest
// through scheduler dequeue to batch egress — at one shard and at four, on
// live Start-ed pumps. The link rate and burst are set far past memory speed
// and the splitter is parked, so pacing never throttles and the measurement
// is pure engine work; the shards=4 / shards=1 ratio is the multi-core
// scaling factor (≈1× on a single-CPU host, where four pumps time-slice one
// core).
func BenchmarkShardedPump(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchmarkShardedPump(b, n)
		})
	}
}

func benchmarkShardedPump(b *testing.B, n int) {
	s, err := New("WF2Q+", 1e12, n,
		[]dataplane.Option{dataplane.WithBurst(1e18)},
		WithClock(wallclock.NewFake())) // a clock never advanced parks the splitter
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.AddClass(0, 1e12); err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Int64
	progress := make(chan struct{}, 1)
	if err := s.Start(func(int) dataplane.Writer { return deliveredWriter{&delivered, progress} }); err != nil {
		b.Fatal(err)
	}

	payload := make([]byte, 200)
	b.SetBytes(200)
	b.ReportAllocs()
	b.ResetTimer()
	// Chunked preload: stage a bounded burst round-robin across the shards,
	// wait for the pumps to drain it, repeat — keeps every shard backlogged
	// (batched dequeues) without unbounded queue growth at large b.N.
	const chunk = 8192
	var target int64
	for remaining := b.N; remaining > 0; {
		batch := chunk
		if batch > remaining {
			batch = remaining
		}
		for i := 0; i < batch; i++ {
			if err := s.Shard(i%n).Ingest(0, payload); err != nil {
				b.Fatal(err)
			}
		}
		target += int64(batch)
		for delivered.Load() < target {
			<-progress
		}
		remaining -= batch
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}
