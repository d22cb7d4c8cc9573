package main

import (
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestOnSignals: a repeat of the shutdown signal within repeatGrace of the
// first (GNU timeout signals the gateway and its process group at once) is
// the same request and lets the drain run; a second signal after that
// exits 1 at once.
func TestOnSignals(t *testing.T) {
	for _, tc := range []struct {
		name string
		gap  time.Duration // clock advance between the two signals
		want int           // exit code, -1 = exit not called
	}{
		{"back-to-back repeat drains", 10 * time.Millisecond, -1},
		{"later second signal exits", time.Second, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			clock := time.Unix(1, 0)
			now := func() time.Time {
				mu.Lock()
				defer mu.Unlock()
				return clock
			}
			sigs := make(chan os.Signal)
			drained := make(chan struct{})
			code := -1
			done := make(chan struct{})
			go func() {
				defer close(done)
				onSignals(sigs, now, func() { close(drained) }, func(c int) { code = c })
			}()
			sigs <- syscall.SIGTERM
			<-drained
			mu.Lock()
			clock = clock.Add(tc.gap)
			mu.Unlock()
			sigs <- syscall.SIGTERM
			close(sigs)
			<-done
			if code != tc.want {
				t.Fatalf("exit code %d, want %d", code, tc.want)
			}
		})
	}
}
