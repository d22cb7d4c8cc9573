package shard

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpfq/internal/ctl"
	"hpfq/internal/dataplane"
	"hpfq/internal/obs"
	"hpfq/internal/topo"
)

// TestShardedReconfigStorm is the -race workout for the sharded control
// plane: producers hammer a two-shard topology front with keys spread across
// both shards while every admin mutation arrives over real HTTP — rate and
// share retunes, ceiling flips, graft and drain-removal of a fourth class —
// with merged snapshots and per-shard drill-downs read concurrently.
// Hitlessness is the acceptance bar: every datagram accepted by IngestKeyCtx
// must be written exactly once, on whichever shard it hashed to, across the
// whole storm.
func TestShardedReconfigStorm(t *testing.T) {
	top, err := topo.Parse("root=1(agg=3(a=2:0,b=1:1),c=1:2)")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("WF2Q+", 4e8, 2,
		[]dataplane.Option{dataplane.WithTopology(top), dataplane.WithMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	writers := []*classCountWriter{newClassCountWriter(), newClassCountWriter()}
	if err := s.Start(func(i int) dataplane.Writer { return writers[i] }); err != nil {
		t.Fatal(err)
	}

	admin := ctl.New(s)
	bound, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + bound.String()
	post := func(path string, vals url.Values) {
		t.Helper()
		resp, err := http.PostForm(base+path, vals)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %v: %d %s", path, vals, resp.StatusCode, body)
		}
	}

	const producers = 4
	var accepted [4]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				class := (p + i) % 4
				// Distinct keys per producer/iteration spread the storm
				// across both shards.
				err := s.IngestKeyCtx(uint64(p*1000003+i), class, mkPayload(class, i, 64+i%256), nil)
				switch {
				case err == nil:
					accepted[class].Add(1)
				case errors.Is(err, dataplane.ErrNoClass), errors.Is(err, dataplane.ErrClassDraining):
					// Class 3 comes and goes under the control loop.
				case errors.Is(err, dataplane.ErrClosed):
					return
				default:
					t.Error(err)
					return
				}
				if i%64 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(p)
	}

	// Control loop: every mutation the admin API exposes, over HTTP, against
	// the fan-out surface — each request must apply to both shards or report
	// why not; none may strand the shards apart.
	deadline := time.Now().Add(300 * time.Millisecond)
	for round := 0; time.Now().Before(deadline); round++ {
		post("/api/class/rate", url.Values{"id": {"0"}, "rate": {"1.5e8"}})
		post("/api/node/weight", url.Values{"name": {"agg"}, "share": {"2"}})
		post("/api/class/add", url.Values{"parent": {"root"}, "id": {"3"}, "share": {"1"}})
		post("/api/class/ceil", url.Values{"id": {"2"}, "ceil": {"2e8"}})
		time.Sleep(2 * time.Millisecond)
		post("/api/class/remove", url.Values{"id": {"3"}})
		post("/api/class/ceil", url.Values{"id": {"2"}, "ceil": {"0"}})
		// Wait for both shards to finalize the drain so the next graft can
		// reuse id 3 without tripping the divergence detector.
		for done := false; !done; {
			done = true
			for _, c := range s.Status().Classes {
				if c.ID == 3 {
					done = false
				}
			}
			if !done {
				time.Sleep(time.Millisecond)
			}
		}
		// Merged and per-shard reads race the mutations too.
		resp, err := http.Get(base + "/api/shards")
		if err != nil {
			t.Fatal(err)
		}
		var sts []dataplane.Status
		if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(sts) != 2 {
			t.Fatalf("/api/shards returned %d entries, want 2", len(sts))
		}
		s.Snapshot()
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero survivor loss: refused ingest into the draining class is the only
	// legitimate drop; anything else means an accepted datagram vanished.
	m := s.Snapshot()
	if lost := m.Dropped.Packets - m.DropReasons[obs.DropDraining].Packets; lost != 0 {
		t.Fatalf("lost %d accepted datagrams under the sharded storm (reasons %v)",
			lost, m.DropReasons)
	}
	for class := 0; class < 4; class++ {
		got := writers[0].count(class) + writers[1].count(class)
		if want := accepted[class].Load(); got != want {
			t.Fatalf("class %d: wrote %d of %d accepted datagrams", class, got, want)
		}
	}
}

// TestAdminShardsEndpoint pins the drill-down contract: a sharded engine
// serves its per-shard statuses on /api/shards, and the merged /api/status
// advertises the shard count.
func TestAdminShardsEndpoint(t *testing.T) {
	s, err := New("WF2Q+", 4e6, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddClass(0, 4e6); err != nil {
		t.Fatal(err)
	}
	admin := ctl.New(s)
	bound, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + bound.String()

	resp, err := http.Get(base + "/api/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/shards: %d", resp.StatusCode)
	}
	var sts []dataplane.Status
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		t.Fatal(err)
	}
	if len(sts) != 4 {
		t.Fatalf("%d shard statuses, want 4", len(sts))
	}
	for i, st := range sts {
		if st.Rate != 1e6 {
			t.Errorf("shard %d rate = %g, want its 1e6 slice", i, st.Rate)
		}
		if len(st.Classes) != 1 || st.Classes[0].Rate != 1e6 {
			t.Errorf("shard %d classes = %+v, want class 0 at 1e6", i, st.Classes)
		}
	}

	var merged dataplane.Status
	resp2, err := http.Get(base + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	if merged.Shards != 4 || merged.Rate != 4e6 {
		t.Fatalf("merged status shards=%d rate=%g, want 4/4e6", merged.Shards, merged.Rate)
	}
}
