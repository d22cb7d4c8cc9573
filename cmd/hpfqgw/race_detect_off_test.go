//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// allocation assertions skip under it because sync.Pool then drops a share
// of its Puts on purpose, so pooled paths allocate.
const raceEnabled = false
