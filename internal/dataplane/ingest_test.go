package dataplane

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hpfq/internal/errs"
	"hpfq/internal/fec"
	"hpfq/internal/obs"
	"hpfq/internal/topo"
)

// TestRefusalTaxonomyAllocFree: every refusal Ingest can return matches its
// sentinel with errors.Is, names its class through errors.As, leaves the
// staged counts alone, is recorded under its drop reason, and — once the
// class has refused once — costs no allocation. So does the refusal of an
// Ingest into an FEC repair class.
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
	// An FEC repair class belongs to the engine: Ingest into it is refused
	// with an error naming the protected class, cached like the rest.
	if err := d.ProtectClass(1, fec.Spec{Scheme: fec.SchemeXOR, K: 8, R: 1}, FECConfig{}); err != nil {
		t.Fatal(err)
	}
	repair := 1 + DefaultRepairClassOffset
	err = d.Ingest(repair, b)
	const msg = "dataplane: class 1001 is the FEC repair class of 1 (engine-owned)"
	if err == nil || err.Error() != msg {
		t.Fatalf("ingest into the repair class: %v, want %q", err, msg)
	}
	if again := d.Ingest(repair, b); again != err {
		t.Errorf("repair-class refusal not cached: %p then %p", err, again)
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(100, func() { d.Ingest(repair, b) }); avg != 0 {
			t.Errorf("repair-class refusal allocates %g times, want 0", avg)
		}
	}
	if p, _ := queued(d, 0); p != 2 {
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

// TestNewRefusesNegativeCaps: admission reads a non-positive cap as
// unlimited, so a negative one would silently remove the bound. New refuses
// it with an error naming the option.
func TestNewRefusesNegativeCaps(t *testing.T) {
	for name, opt := range map[string]Option{"WithQueueCap": WithQueueCap(-1), "WithByteCap": WithByteCap(-1)} {
		if _, err := New("WF2Q+", 1e6, opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("New with %s(-1) = %v, want an error naming %s", name, err, name)
		}
	}
}

// TestNewBurstDepth: a negative depth would silently read as the default
// and a NaN or infinite one would leave the token bucket uncapped, so New
// refuses them with an error naming WithBurst; 0 selects the default, 5 ms
// of the rate.
func TestNewBurstDepth(t *testing.T) {
	const rate = 1e6
	for _, tc := range []struct {
		bits float64
		want float64 // 0: refused
	}{
		{-1, 0},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, rate * 0.005},
		{1e5, 1e5},
	} {
		d, err := New("WF2Q+", rate, WithBurst(tc.bits))
		switch {
		case tc.want == 0:
			if err == nil || !strings.Contains(err.Error(), "WithBurst") {
				t.Errorf("WithBurst(%g): New = %v, want an error naming WithBurst", tc.bits, err)
			}
		case err != nil:
			t.Errorf("WithBurst(%g): %v", tc.bits, err)
		case d.burst != tc.want:
			t.Errorf("WithBurst(%g): depth %g, want %g", tc.bits, d.burst, tc.want)
		}
	}
}

// TestNewRefusesMalformedTopology: New reports a malformed topology — here
// a nil child, which the class-id walk before the build steps over — as
// errs.ErrBadTopology instead of panicking, and checks class ids first.
func TestNewRefusesMalformedTopology(t *testing.T) {
	bad := topo.Interior("r", 1, topo.Leaf("a", 1, 0), nil)
	if _, err := New("WF2Q+", 1e6, WithTopology(bad)); !errors.Is(err, errs.ErrBadTopology) {
		t.Fatalf("nil child: %v, want ErrBadTopology", err)
	}
	big := topo.Interior("r", 1, topo.Leaf("a", 1, MaxClassID+1), nil)
	if _, err := New("WF2Q+", 1e6, WithTopology(big)); err == nil || errors.Is(err, errs.ErrBadTopology) {
		t.Fatalf("class id past MaxClassID: %v, want the class-id error", err)
	}
}
