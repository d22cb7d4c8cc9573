package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// nChunks is how many equal sub-windows a measurement window is cut into.
// Each figure is computed per sub-window and the run reports their trimmed
// mean (centralOver), so a host stall that spoils a sub-window or two does
// not decide the run. With -trace 1 the first half of the sub-windows runs
// untraced, the second half traced.
const nChunks = 15

// window is a measurement window on a run's clock (ns since its base).
type window struct {
	start, chunk int64
}

func newWindow(start int64, seconds float64) window {
	return window{start: start, chunk: int64(seconds * 1e9 / nChunks)}
}

// index returns the sub-window holding t, or -1 outside the window.
func (w window) index(t int64) int {
	if w.chunk <= 0 || t < w.start {
		return -1
	}
	i := (t - w.start) / w.chunk
	if i >= nChunks {
		return -1
	}
	return int(i)
}

// edge returns the start of sub-window i (edge(nChunks) is the end).
func (w window) edge(i int) int64 { return w.start + int64(i)*w.chunk }

// sleepUntil sleeps until t on the clock that started at base.
func sleepUntil(base time.Time, t int64) {
	if d := time.Duration(t - time.Since(base).Nanoseconds()); d > 0 {
		time.Sleep(d)
	}
}

// subs is a set of sub-window indices a figure is taken over.
type subs []int

// spans returns the untraced and traced sub-windows: all of them untraced,
// or with -trace 1 the first half untraced and the second half traced.
func spans(trace bool) (untraced, traced subs) {
	all := make(subs, nChunks)
	for i := range all {
		all[i] = i
	}
	if trace {
		return all[:nChunks/2], all[nChunks/2:]
	}
	return all, nil
}

// start and end bound a contiguous s: sub-windows [start, end).
func (s subs) start() int { return s[0] }
func (s subs) end() int   { return s[len(s)-1] + 1 }

// has reports whether sub-window i is in s.
func (s subs) has(i int) bool {
	for _, j := range s {
		if j == i {
			return true
		}
	}
	return false
}

// quietest keeps the sub-windows of s in which the hypervisor stole the
// least CPU time (steal[i] is sub-window i's share): every one within one
// percentage point of the least, and at least the quietest third. Steal is
// time the host ran other guests on this machine's CPUs; at 30 % it halves
// the closed loops' throughput, so figures taken during it measure the
// neighbours rather than the program.
func quietest(s subs, steal []float64) subs {
	q := append(subs(nil), s...)
	sort.SliceStable(q, func(a, b int) bool { return steal[q[a]] < steal[q[b]] })
	n := (len(q) + 2) / 3
	for n < len(q) && steal[q[n]] <= steal[q[0]]+0.01 {
		n++
	}
	q = q[:n]
	sort.Ints(q)
	return q
}

// centralOver is the trimmed mean of f over the sub-windows of s: the
// lowest and highest fifth (at least one each from three values on) are
// dropped and the rest averaged. Unlike a median it does not jump between
// two levels when a run straddles a change in host speed.
func centralOver(s subs, f func(i int) float64) float64 {
	var xs []float64
	for _, i := range s {
		xs = append(xs, f(i))
	}
	sort.Float64s(xs)
	cut := len(xs) / 5
	if cut == 0 && len(xs) >= 3 {
		cut = 1
	}
	xs = xs[cut : len(xs)-cut]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latChunks holds one latency histogram per sub-window.
type latChunks [nChunks]hist

func (l *latChunks) merge(o *latChunks) {
	for i := range l {
		l[i].merge(&o[i])
	}
}

// quantile is the trimmed mean over s of each sub-window's q-quantile.
func (l *latChunks) quantile(s subs, q float64) float64 {
	return centralOver(s, func(i int) float64 { return l[i].quantile(q) })
}

// samples counts the latencies recorded over s.
func (l *latChunks) samples(s subs) uint64 {
	var n uint64
	for _, i := range s {
		n += l[i].n
	}
	return n
}

// all merges the sub-windows of s into one histogram.
func (l *latChunks) all(s subs) *hist {
	var h hist
	for _, i := range s {
		h.merge(&l[i])
	}
	return &h
}

// percents formats shares as percentages, for the notes.
func percents(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f", 100*x)
	}
	return b.String()
}

// describe lists each sub-window's q-quantile in µs, for the notes.
func (l *latChunks) describe(q float64) string {
	var b strings.Builder
	for i := range l {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", l[i].quantile(q)/1e3)
	}
	return b.String()
}
