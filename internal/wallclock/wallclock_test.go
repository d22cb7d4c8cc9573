package wallclock

import (
	"testing"
	"time"
)

func TestFakeFiresInOrder(t *testing.T) {
	clk := NewFake()
	var got []int
	clk.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	clk.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	clk.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	clk.Advance(15 * time.Millisecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after 15ms got %v, want [1]", got)
	}
	clk.Advance(20 * time.Millisecond)
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("after 35ms got %v, want [1 2 3]", got)
	}
	if clk.Elapsed() != 35*time.Millisecond {
		t.Errorf("Elapsed = %v, want 35ms", clk.Elapsed())
	}
}

func TestFakeEqualTimestampsFIFO(t *testing.T) {
	clk := NewFake()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		clk.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	clk.Advance(time.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp order %v, want FIFO", got)
		}
	}
}

func TestFakeTimerChains(t *testing.T) {
	clk := NewFake()
	var fires []time.Duration
	var chain func()
	chain = func() {
		fires = append(fires, clk.Elapsed())
		if len(fires) < 4 {
			clk.AfterFunc(10*time.Millisecond, chain)
		}
	}
	clk.AfterFunc(10*time.Millisecond, chain)
	clk.Advance(time.Second)
	want := []time.Duration{10, 20, 30, 40}
	if len(fires) != 4 {
		t.Fatalf("chain fired %d times, want 4", len(fires))
	}
	for i, w := range want {
		if fires[i] != w*time.Millisecond {
			t.Errorf("fire %d at %v, want %v", i, fires[i], w*time.Millisecond)
		}
	}
}

func TestFakeNowMatchesEpoch(t *testing.T) {
	clk := NewFake()
	clk.Advance(time.Second)
	if got := clk.Now(); !got.Equal(time.Unix(1, 0)) {
		t.Errorf("Now = %v, want 1s after Unix epoch", got)
	}
}

// TestRealClock is a smoke test that the production clock fires.
func TestRealClock(t *testing.T) {
	done := make(chan struct{})
	Real{}.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer never fired")
	}
	if (Real{}).Now().IsZero() {
		t.Fatal("real Now is zero")
	}
}

// TestSince: Since is Now().Sub on both clocks — on Fake the virtual time
// advanced, on Real a monotonic reading between two Now readings.
func TestSince(t *testing.T) {
	fake := NewFake()
	epoch := fake.Now()
	fake.Advance(1500 * time.Microsecond)
	if got, want := fake.Since(epoch), fake.Now().Sub(epoch); got != want || got != 1500*time.Microsecond {
		t.Errorf("Fake.Since = %v, want %v", got, want)
	}
	var real Real
	start := real.Now()
	before := real.Now().Sub(start)
	got := real.Since(start)
	if after := real.Now().Sub(start); got < before || got > after {
		t.Errorf("Real.Since = %v, want within [%v, %v]", got, before, after)
	}
}
