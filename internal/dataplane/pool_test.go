package dataplane

import (
	"sync"
	"testing"
)

// TestBufferPoolConcurrent: Get, Put and PutBatch from several goroutines
// at once never hand out a buffer that is already out, never hand out a
// short foreign buffer someone Put, and keep Stats exact — Gets and Puts
// match the calls made, and Allocs matches the distinct buffers Get ever
// returned. Run with -race.
func TestBufferPoolConcurrent(t *testing.T) {
	const (
		size    = 64
		workers = 4
		rounds  = 3000
	)
	p := NewBufferPool(size)
	var (
		mu      sync.Mutex
		out     = map[*byte]bool{} // handed out and not yet returned
		seen    = map[*byte]bool{} // every buffer Get returned; kept alive, so no address is reused
		foreign = map[*byte]bool{} // short buffers Put from outside the pool
		gets    int64
		puts    int64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held, batch [][]byte
			target := 1 + w // buffers to hold before giving them back
			giveBack := func() {
				mu.Lock()
				for _, b := range held {
					delete(out, &b[0])
				}
				puts += int64(len(held))
				mu.Unlock()
				batch = batch[:0]
				for i, b := range held {
					batch = append(batch, b[:i%size]) // resliced: capacity is what counts
				}
				if w%2 == 0 {
					short := make([]byte, size/2)
					mu.Lock()
					foreign[&short[0]] = true
					mu.Unlock()
					p.PutBatch(append(batch, short))
				} else {
					for _, b := range batch {
						p.Put(b)
					}
				}
				held = held[:0]
				target = 1 + (target*13+w)%45 // batches both below and above a magazine
			}
			for i := 0; i < rounds; i++ {
				b := p.Get()
				if len(b) != size {
					t.Errorf("Get length %d, want %d", len(b), size)
					return
				}
				mu.Lock()
				gets++
				k := &b[0]
				twice, alien := out[k], foreign[k]
				out[k], seen[k] = true, true
				mu.Unlock()
				if twice || alien {
					t.Errorf("worker %d round %d: Get returned a buffer already out (%v) or a foreign one (%v)", w, i, twice, alien)
					return
				}
				held = append(held, b)
				if len(held) == target {
					giveBack()
				}
			}
			giveBack()
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != gets || st.Puts != puts {
		t.Errorf("Stats gets=%d puts=%d, want %d and %d (short foreign Puts not counted)", st.Gets, st.Puts, gets, puts)
	}
	if st.Allocs != int64(len(seen)) {
		t.Errorf("Stats allocs=%d, but Get returned %d distinct buffers", st.Allocs, len(seen))
	}
	if len(out) != 0 {
		t.Errorf("%d buffers never returned", len(out))
	}
}
