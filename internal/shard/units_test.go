package shard

import (
	"math"
	"testing"
	"time"

	"hpfq/internal/dataplane"
	"hpfq/internal/fec"
	"hpfq/internal/topo"
	"hpfq/internal/wallclock"
)

// near reports whether got is want up to float rounding.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

// classRow returns class id's merged Status row.
func classRow(t *testing.T, s *Sharded, id int) dataplane.ClassStatus {
	t.Helper()
	for _, c := range s.Status().Classes {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("class %d missing from the merged Status", id)
	return dataplane.ClassStatus{}
}

// TestWholeLinkUnits: every absolute value handed to the front — a rate
// through AddClass, AddLeafClass under the flat root, SetRate, or an FEC
// RepairShare; a ceiling through AddLeafClass, SetCeil, or SetNodeCeil on
// the root — means the whole link whatever the shard count: the merged
// Status reads it back as given, and a root ceiling bounds the summed
// egress of all shards.
func TestWholeLinkUnits(t *testing.T) {
	const (
		rate     = 10e6
		rootCeil = 2e6
		size     = 125 // 1000 bits
		perShard = 600
	)
	for _, n := range []int{1, 2, 4} {
		clk := wallclock.NewFake()
		s, err := New("WF2Q+", rate, n, []dataplane.Option{dataplane.WithClock(clk)}, WithSplitTick(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		want := func(id int, what string, got, v float64) {
			t.Helper()
			if !near(got, v) {
				t.Fatalf("N=%d: class %d %s = %g, want the whole-link %g", n, id, what, got, v)
			}
		}
		if err := s.AddClass(0, 4e6); err != nil {
			t.Fatal(err)
		}
		want(0, "rate after AddClass", classRow(t, s, 0).Rate, 4e6)
		if err := s.AddLeafClass("", "", 1, 4e6, 3e6); err != nil {
			t.Fatal(err)
		}
		want(1, "rate after AddLeafClass", classRow(t, s, 1).Rate, 4e6)
		want(1, "ceil after AddLeafClass", classRow(t, s, 1).Ceil, 3e6)
		if err := s.SetRate(0, 3e6); err != nil {
			t.Fatal(err)
		}
		want(0, "rate after SetRate", classRow(t, s, 0).Rate, 3e6)
		if err := s.SetCeil(0, 5e6); err != nil {
			t.Fatal(err)
		}
		want(0, "ceil after SetCeil", classRow(t, s, 0).Ceil, 5e6)
		spec := fec.Spec{Scheme: fec.SchemeXOR, K: 4, R: 1}
		if err := s.ProtectClass(1, spec, dataplane.FECConfig{RepairShare: 1e6}); err != nil {
			t.Fatal(err)
		}
		want(1+dataplane.DefaultRepairClassOffset, "rate after ProtectClass", classRow(t, s, 1+dataplane.DefaultRepairClassOffset).Rate, 1e6)

		// The root's ceiling has no Status row: its egress shows it. Class
		// 0 alone is backlogged on every shard, uncapped but for the root.
		if err := s.SetNodeCeil("", rootCeil); err != nil {
			t.Fatal(err)
		}
		writers := make([]*classCountWriter, n)
		for i := range writers {
			writers[i] = newClassCountWriter()
			for k := 0; k < perShard; k++ {
				if err := s.Shard(i).Ingest(0, mkPayload(0, k, size)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Start(func(i int) dataplane.Writer { return writers[i] }); err != nil {
			t.Fatal(err)
		}
		total := func() int64 {
			var sum int64
			for _, w := range writers {
				sum += w.total()
			}
			return sum
		}
		// Skip each shard's first ceiling bucket (BucketDepth, two 8 KB
		// packets), then time the next third of the backlog.
		advanceUntil(t, clk, time.Millisecond, func() bool { return total() >= int64(n*perShard/3) })
		t1, c1 := clk.Now(), total()
		advanceUntil(t, clk, time.Millisecond, func() bool { return total() >= int64(2*n*perShard/3) })
		got := float64((total()-c1)*size*8) / clk.Now().Sub(t1).Seconds()
		if got < 0.8*rootCeil || got > 1.25*rootCeil {
			t.Fatalf("N=%d: summed egress under a %g root ceiling ran at %.3g b/s", n, rootCeil, got)
		}
		closeDraining(t, s, clk)
	}
}

// TestShareUnitsAcrossShards: a topology leaf's share is a weight, so
// AddLeafClass hands it to every shard as given; under a flat root it is a
// whole-link rate, and traffic spread over the shards by IngestKey meets
// each class's share whichever call registered it.
func TestShareUnitsAcrossShards(t *testing.T) {
	top, err := topo.Parse("root=1(a=1:0,b=1:1)")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("WF2Q+", 8e6, 2, []dataplane.Option{dataplane.WithTopology(top)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddLeafClass("root", "c", 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if r := classRow(t, s, 2).Rate; !near(r, 4e6) {
		t.Fatalf("topology leaf of share 2 among 1+1+2 = %g b/s, want 4e6", r)
	}
	for i := 0; i < s.Shards(); i++ {
		for _, info := range s.Shard(i).Status().Nodes {
			if info.Name == "c" && info.Share != 2 {
				t.Fatalf("shard %d holds leaf c at share %g, want 2", i, info.Share)
			}
		}
	}
	s.Close()

	const (
		size  = 125 // 1000 bits
		flows = 64
		fill  = 800
	)
	clk := wallclock.NewFake()
	s, err = New("WF2Q+", 8e6, 2, []dataplane.Option{dataplane.WithClock(clk)}, WithSplitTick(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass(0, 6e6); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLeafClass("", "", 1, 2e6, 0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < fill; k++ {
		for class := 0; class < 2; class++ {
			key := uint64(class*flows + k%flows)
			if err := s.IngestKey(key, class, mkPayload(class, k, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	writers := []*classCountWriter{newClassCountWriter(), newClassCountWriter()}
	if err := s.Start(func(i int) dataplane.Writer { return writers[i] }); err != nil {
		t.Fatal(err)
	}
	count := func(class int) int64 { return writers[0].count(class) + writers[1].count(class) }
	// ~600 of the 1600 staged datagrams: every queue is still backlogged.
	advanceUntil(t, clk, time.Millisecond, func() bool { return count(0)+count(1) >= 600 })
	share := float64(count(0)) / float64(count(0)+count(1))
	if share < 0.675 || share > 0.825 {
		t.Fatalf("class 0 aggregate share = %.3f (%d vs %d), want 0.75 ± 10%%", share, count(0), count(1))
	}
	closeDraining(t, s, clk)
}
