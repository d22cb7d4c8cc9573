package dataplane

import (
	"errors"
	"testing"

	"hpfq/internal/obs"
)

// TestRefusalTaxonomyAllocFree: every refusal Ingest can return matches its
// sentinel with errors.Is, names its class through errors.As, leaves the
// staged counts alone, is recorded under its drop reason, and — once the
// class has refused once — costs no allocation.
func TestRefusalTaxonomyAllocFree(t *testing.T) {
	d, err := New("WF2Q+", 1e6, WithQueueCap(2), WithByteCap(300), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if err := d.AddClass(c, 1e5); err != nil {
			t.Fatal(err)
		}
	}
	// Class 0 at its packet cap, class 1 at its byte cap, class 2 shedding,
	// class 3 draining (it holds a datagram, so the drain cannot finish
	// while the pump is not running).
	for i := 0; i < 2; i++ {
		if err := d.Ingest(0, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Ingest(1, make([]byte, 250)); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(3, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveClass(3); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.classes[2].shed = true
	d.mu.Unlock()

	b := make([]byte, 100)
	for _, tc := range []struct {
		class  int
		want   error
		reason string
	}{
		{0, ErrQueueFull, obs.DropTail},
		{1, ErrQueueFull, obs.DropBytes},
		{2, ErrShedding, obs.DropShed},
		{3, ErrClassDraining, obs.DropDraining},
		{9, ErrNoClass, ""},
	} {
		before := d.Snapshot().DropReasons[tc.reason].Packets
		err := d.Ingest(tc.class, b)
		if !errors.Is(err, tc.want) {
			t.Fatalf("class %d: %v, want %v", tc.class, err, tc.want)
		}
		var ce *ClassError
		if !errors.As(err, &ce) || ce.Class != tc.class {
			t.Fatalf("class %d: errors.As gave %+v, want the class named", tc.class, ce)
		}
		if tc.reason != "" {
			if got := d.Snapshot().DropReasons[tc.reason].Packets; got != before+1 {
				t.Errorf("class %d: %q drops %d → %d, want one more", tc.class, tc.reason, before, got)
			}
		}
		if !raceEnabled {
			if avg := testing.AllocsPerRun(100, func() { d.Ingest(tc.class, b) }); avg != 0 {
				t.Errorf("class %d: refusal allocates %g times, want 0", tc.class, avg)
			}
		}
	}
	if p, _ := d.Queued(0); p != 2 {
		t.Errorf("class 0 queued %d after refusals, want the 2 accepted", p)
	}
	if got := d.Backlog(); got != 4 {
		t.Errorf("backlog %d, want the 4 accepted datagrams staged in the inbox", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(0, b); err != ErrClosed {
		t.Fatalf("after Close: %v, want ErrClosed itself", err)
	}
}
