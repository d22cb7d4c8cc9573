package dataplane

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpfq/internal/obs"
	"hpfq/internal/topo"
)

// countWriter counts datagrams and bytes written, atomically.
type countWriter struct {
	packets atomic.Int64
	bytes   atomic.Int64
}

func (w *countWriter) WritePacket(b []byte) (int, error) {
	w.packets.Add(1)
	w.bytes.Add(int64(len(b)))
	return len(b), nil
}

// TestConcurrentProducersStress is the -race workout: many producer
// goroutines hammer Ingest (with caps tight enough to force the drop path)
// while the pump drains at high rate and other goroutines poll the
// observability surface. Every accepted datagram must come out exactly once
// and the counters must conserve.
func TestConcurrentProducersStress(t *testing.T) {
	const (
		producers = 8
		perProd   = 400
		classes   = 4
	)
	d, err := New("WF2Q+", 5e8, WithQueueCap(64), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < classes; c++ {
		d.AddClass(c, 5e8/classes)
	}
	w := &countWriter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}

	var accepted, dropped atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				size := 64 + (p*perProd+i)%1024
				b := make([]byte, size)
				b[0] = byte((p + i) % classes)
				switch err := d.Ingest(int(b[0]), b); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull):
					dropped.Add(1)
				default:
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(p)
	}
	// Concurrent observers on the snapshot and stats surfaces.
	stop := make(chan struct{})
	var owg sync.WaitGroup
	owg.Add(1)
	go func() {
		defer owg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = d.Snapshot()
				_ = d.Backlog()
				_, _ = d.Queued(0)
			}
		}
	}()
	wg.Wait()
	close(stop)
	owg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	m := d.Snapshot()
	if !m.Conserved() {
		t.Error("metrics not conserved after concurrent run")
	}
	if m.Enqueued.Packets != accepted.Load() {
		t.Errorf("scheduler enqueued %d, producers accepted %d", m.Enqueued.Packets, accepted.Load())
	}
	if m.Dropped.Packets != dropped.Load() {
		t.Errorf("scheduler dropped %d, producers saw %d rejections", m.Dropped.Packets, dropped.Load())
	}
	if w.packets.Load() != accepted.Load() {
		t.Errorf("writer got %d datagrams, want %d (every accepted datagram exactly once)",
			w.packets.Load(), accepted.Load())
	}
	if total := accepted.Load() + dropped.Load(); total != producers*perProd {
		t.Errorf("accounted %d submissions, want %d", total, producers*perProd)
	}
}

// TestIngestCloseRace is the issue's lifecycle regression: producers
// hammering Ingest while Close runs concurrently must see only clean
// outcomes — nil, ErrQueueFull, or the ErrClosed sentinel — never a panic or
// a send on a closed channel, and once Close returns every further Ingest
// deterministically returns ErrClosed. Run under -race.
func TestIngestCloseRace(t *testing.T) {
	const (
		producers = 8
		classes   = 2
	)
	d, err := New("WF2Q+", 5e8, WithQueueCap(128), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < classes; c++ {
		d.AddClass(c, 5e8/classes)
	}
	w := &countWriter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}

	var accepted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				b := make([]byte, 64)
				b[0] = byte((p + i) % classes)
				switch err := d.Ingest(int(b[0]), b); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull):
				case errors.Is(err, ErrClosed):
					return // clean shutdown signal: stop producing
				default:
					t.Errorf("ingest during close: %v", err)
					return
				}
			}
		}(p)
	}
	close(start)
	// Let the producers get going, then yank the engine out from under them.
	for accepted.Load() < 500 {
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- d.Close() }() // second concurrent Close must also be safe
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// After Close has returned, Ingest is deterministic.
	for i := 0; i < 10; i++ {
		if err := d.Ingest(i%classes, []byte{byte(i % classes)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close Ingest = %v, want ErrClosed", err)
		}
	}
	m := d.Snapshot()
	if !m.Conserved() {
		t.Error("metrics not conserved across the close race")
	}
	if w.packets.Load() != accepted.Load() {
		t.Errorf("writer got %d datagrams, producers had %d accepted (drain must deliver all)",
			w.packets.Load(), accepted.Load())
	}
}

// batchCounter is a BatchWriter counting delivered datagrams atomically.
type batchCounter struct{ n atomic.Int64 }

func (w *batchCounter) WritePacket(b []byte) (int, error) {
	w.n.Add(1)
	return len(b), nil
}

func (w *batchCounter) WriteBatch(pkts []Datagram) (int, error) {
	w.n.Add(int64(len(pkts)))
	return len(pkts), nil
}

// deepTreeSpec is a fanout³-leaf topology in topo.Parse syntax: nodes
// g<i>, g<i>_<j>, and leaves l<i>_<j>_<k> carrying classes 0..fanout³-1.
func deepTreeSpec(fanout int) string {
	var b strings.Builder
	b.WriteString("root=1(")
	for i := 0; i < fanout; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "g%d=1(", i)
		for j := 0; j < fanout; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "g%d_%d=1(", i, j)
			for k := 0; k < fanout; k++ {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "l%d_%d_%d=1:%d", i, j, k, (i*fanout+j)*fanout+k)
			}
			b.WriteByte(')')
		}
		b.WriteByte(')')
	}
	b.WriteByte(')')
	return b.String()
}

// TestSingleWriterOwnership pins the single-writer rule on the deep-tree
// path under -race: a 4096-leaf (16×16×16) WF²Q+ engine with a live pump
// takes four producers — two pushing one leaf past WithQueueCap, two
// spreading over every leaf and the storm's classes — while readers poll
// Snapshot/Status/Queued/Backlog and a storm retunes shares and grafts and
// removes leaves. Conservation holds throughout: datagrams written plus
// those the engine holds (Backlog) never exceed those accepted; once the
// producers stop, every accepted datagram is written and none is dropped
// after acceptance; and Backlog reads 0 after Close.
func TestSingleWriterOwnership(t *testing.T) {
	const (
		producers = 4
		perProd   = 3000
		leaves    = 16 * 16 * 16
		hot       = 5    // the leaf two producers overrun
		stormBase = 5000 // storm class ids stormBase..stormBase+7
	)
	top, err := topo.Parse(deepTreeSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("WF2Q+", 1e12, WithTopology(top), WithBurst(1e12), WithQueueCap(32), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	w := &batchCounter{}
	if err := d.Start(w); err != nil {
		t.Fatal(err)
	}

	var accepted, full, draining, grafts atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				class := hot
				if p >= 2 {
					class = (i*97 + p) % leaves
					if i%5 == 0 {
						class = stormBase + i%8
					}
				}
				switch err := d.Ingest(class, make([]byte, 64)); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull):
					full.Add(1)
				case errors.Is(err, ErrClassDraining):
					draining.Add(1)
				case errors.Is(err, ErrNoClass) && class >= stormBase:
				default:
					t.Errorf("producer %d ingest into %d: %v", p, class, err)
					return
				}
			}
		}(p)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // readers, checking conservation while the engine runs
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			written := w.n.Load()
			backlog := d.Backlog()
			if acc := accepted.Load(); written+int64(backlog) > acc+producers {
				t.Errorf("written %d + backlog %d exceeds accepted %d", written, backlog, acc)
				return
			}
			_ = d.Snapshot()
			_ = d.Status()
			_, _ = d.Queued(hot)
		}
	}()
	go func() { // control-plane storm
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.SetWeight(fmt.Sprintf("g%d", i%16), 0.5+float64(i%4)/2); err != nil {
				t.Errorf("SetWeight: %v", err)
				return
			}
			id := stormBase + i%8
			if d.AddLeafClass(fmt.Sprintf("g%d_%d", i%16, i%7), fmt.Sprintf("s%d", id), id, 1, 0) == nil {
				grafts.Add(1) // fails while id still drains
			}
			if err := d.RemoveClass(id); err != nil && !errors.Is(err, ErrNoClass) {
				t.Errorf("RemoveClass(%d): %v", id, err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for w.n.Load() < accepted.Load() || d.Backlog() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: written %d of %d accepted, backlog %d", w.n.Load(), accepted.Load(), d.Backlog())
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.Backlog(); got != 0 {
		t.Errorf("backlog %d after Close, want 0", got)
	}
	m := d.Snapshot()
	if got, want := w.n.Load(), accepted.Load(); got != want {
		t.Errorf("written %d, accepted %d", got, want)
	}
	for reason, c := range m.DropReasons {
		switch reason {
		case obs.DropTail, obs.DropDraining:
		default:
			t.Errorf("%d datagrams dropped after acceptance (%q)", c.Packets, reason)
		}
	}
	if got := m.DropReasons[obs.DropTail].Packets; got != full.Load() || got == 0 {
		t.Errorf("tail drops recorded %d, refused with ErrQueueFull %d (want equal, > 0)", got, full.Load())
	}
	if got := m.DropReasons[obs.DropDraining].Packets; got != draining.Load() {
		t.Errorf("draining drops recorded %d, refused with ErrClassDraining %d", got, draining.Load())
	}
	if m.Enqueued.Packets != accepted.Load() || !m.Conserved() {
		t.Errorf("enqueued %d of %d accepted, conserved=%v", m.Enqueued.Packets, accepted.Load(), m.Conserved())
	}
	if grafts.Load() == 0 {
		t.Error("the storm grafted no leaf; the removal path went unexercised")
	}
	t.Logf("accepted %d, tail-dropped %d, refused draining %d, %d leaves grafted and removed",
		accepted.Load(), full.Load(), draining.Load(), grafts.Load())
}
