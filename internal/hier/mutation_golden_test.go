package hier

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/pifo"
	"hpfq/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// lineTracer formats every event it receives as one line, so a whole run
// compares byte for byte.
type lineTracer struct{ b *bytes.Buffer }

func (l lineTracer) line(kind string, ev obs.Event) {
	fmt.Fprintf(l.b, "%s %s %v %d %v %d", kind, ev.Node, ev.Time, ev.Session, ev.Bits, ev.QueueLen)
	if ev.HasVT {
		fmt.Fprintf(l.b, " vt %v %v %v", ev.VirtualStart, ev.VirtualFinish, ev.SystemVT)
	}
	l.b.WriteByte('\n')
}

func (l lineTracer) Enqueue(ev obs.Event) { l.line("E", ev) }
func (l lineTracer) Dequeue(ev obs.Event) { l.line("D", ev) }
func (l lineTracer) Drop(ev obs.Event)    { l.line("X", ev) }

// mutationTopology is three levels of WF²Q+ servers: root, A/B, and BB
// under B.
func mutationTopology() *topo.Node {
	return topo.Interior("root", 1,
		topo.Interior("A", 0.6,
			topo.Leaf("A1", 0.5, 0),
			topo.Leaf("A2", 0.3, 1),
			topo.Leaf("A3", 0.2, 2)),
		topo.Interior("B", 0.4,
			topo.Leaf("B1", 0.5, 3),
			topo.Interior("BB", 0.5,
				topo.Leaf("BB1", 0.5, 4),
				topo.Leaf("BB2", 0.5, 5))))
}

// driveMutating runs a seeded arrival/transmission stream through an
// H-WF²Q+ tree on a 1 Mb/s link, as netsim.Link would serve it, and applies
// live mutations while the tree is backlogged: share and rate retunes, a
// leaf removed once idle and another grafted into its slot, policy swaps
// WF²Q+→DRR→WF²Q+, and a WF²Q+ node restarted on a fresh WF²Q+ policy. It returns the departures, every trace event
// (the tree's and each node's, with their virtual times), and each
// mutation's outcome, as text.
func driveMutating(t *testing.T, seed uint64) []byte {
	tr, err := New(mutationTopology(), 1e6, "WF2Q+")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	tr.SetTracer(lineTracer{&b})
	drr, _ := pifo.Lookup("DRR")
	wf2qp, _ := pifo.Lookup("WF2Q+")
	lengths := []float64{4000, 8000, 12000}
	live := []int{0, 1, 2, 3, 4, 5}
	draining := -1 // session fed no more until it is removed
	next := 6      // the next session id a graft takes
	rng := eqLCG(seed)
	const linkRate = 1e6
	now := 0.0
	take := func() {
		p := tr.Dequeue(now)
		if p == nil {
			return
		}
		fmt.Fprintf(&b, "OUT %v %d %v\n", now, p.Session, p.Length)
		now += p.Length / linkRate
	}
	note := func(op string, err error) {
		fmt.Fprintf(&b, "OP %s %v backlog=%d err=%v\n", op, now, tr.Backlog(), err)
	}
	for step := 0; step < 600; step++ {
		switch step % 100 {
		case 10:
			s := live[rng.intn(len(live))]
			r := float64(5+rng.intn(20)) * 1e4
			note(fmt.Sprintf("rate %d %v", s, r), tr.SetSessionRate(s, r))
		case 35:
			sh := float64(1+rng.intn(9)) / 10
			note(fmt.Sprintf("share B %v", sh), tr.SetNodeShare("B", sh))
		case 50:
			note("policy A DRR", tr.SetNodePolicy("A", drr))
		case 65:
			note("share BB 0.8", tr.SetNodeShare("BB", 0.8))
		case 80:
			note("policy A WF2Q+", tr.SetNodePolicy("A", wf2qp))
		case 90:
			// A fresh WF²Q+ clock under a backlog: every stamp restarts.
			note("policy B WF2Q+", tr.SetNodePolicy("B", wf2qp))
		case 20:
			draining = live[rng.intn(len(live))]
			fmt.Fprintf(&b, "OP drain %d %v\n", draining, now)
		}
		if draining >= 0 {
			parent := tr.Leaf(draining).n.parent.name
			err := tr.RemoveLeaf(draining)
			if !errors.Is(err, ErrLeafBusy) {
				note(fmt.Sprintf("remove %d", draining), err)
				for i, s := range live {
					if s == draining {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				if err == nil {
					// The graft takes the removed leaf's slot and gets a
					// packet at once, while the old leaf's last finish tag
					// may still be ahead of its parent's clock.
					note(fmt.Sprintf("add %d under %s", next, parent), tr.AddLeaf(parent, "", next, 0.4))
					tr.Enqueue(now, packet.New(next, lengths[rng.intn(len(lengths))]))
					live = append(live, next)
					next++
				}
				draining = -1
			}
		}
		// Arrivals outpace departures up to a standing backlog of about 40
		// packets, so every mutation lands on a backlogged tree.
		for k := rng.intn(4); k > 0 && tr.Backlog() < 40; k-- {
			s := live[rng.intn(len(live))]
			if s == draining {
				continue
			}
			tr.Enqueue(now, packet.New(s, lengths[rng.intn(len(lengths))]))
		}
		for k := rng.intn(3); k > 0 && tr.Backlog() > 0; k-- {
			take()
		}
		if rng.intn(8) == 0 {
			now += float64(1+rng.intn(15)) * 1e-3
		}
	}
	for tr.Backlog() > 0 {
		take()
	}
	return b.Bytes()
}

// TestMutationGolden pins the departures and per-node virtual-time traces
// of an H-WF²Q+ tree mutated while backlogged (driveMutating) to the
// checked-in golden byte for byte: retunes, slot reuse and policy swaps
// must keep the schedule exact. Regenerate with -update only when a
// schedule change is intended.
func TestMutationGolden(t *testing.T) {
	path := filepath.Join("testdata", "mutation_golden.txt")
	got := driveMutating(t, 20260807)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
}
