package main

import (
	"fmt"
	"math"

	"hpfq/internal/dataplane"
	"hpfq/internal/fluid"
	"hpfq/internal/hier"
	"hpfq/internal/obs"
	"hpfq/internal/packet"
	"hpfq/internal/topo"
)

// treeFromNodes rebuilds the live scheduling tree (as /api/status reports
// it, repair leaves included) into a topology the fluid reference accepts.
func treeFromNodes(nodes []hier.NodeInfo) (*topo.Node, error) {
	byName := map[string]*topo.Node{}
	var root *topo.Node
	for _, n := range nodes { // preorder: parents come first
		var t *topo.Node
		if n.Session >= 0 {
			t = topo.Leaf(n.Name, n.Share, n.Session)
		} else {
			t = topo.Interior(n.Name, n.Share)
		}
		byName[n.Name] = t
		if n.Parent == "" {
			root = t
			continue
		}
		p := byName[n.Parent]
		if p == nil {
			return nil, fmt.Errorf("node %q: parent %q not seen first", n.Name, n.Parent)
		}
		p.Children = append(p.Children, t)
	}
	if root == nil {
		return nil, fmt.Errorf("no root in %d nodes", len(nodes))
	}
	return root, nil
}

// idealRates is the H-GPS fluid allocation of linkRate over t when each
// leaf offers demand[leaf] bits/s (math.Inf(1) for a greedy, always
// backlogged leaf). It runs the fluid.HGPS reference for one second with
// each leaf's whole second of demand arriving at time 0: a leaf whose
// demand is below its H-GPS share finishes early and its share flows to the
// others, so what each leaf has been served at the end of the second is
// its hierarchical max-min fair rate.
func idealRates(t *topo.Node, linkRate float64, demand map[int]float64) (map[int]float64, error) {
	h, err := fluid.NewHGPS(t, linkRate)
	if err != nil {
		return nil, err
	}
	const horizon = 1.0
	for id, d := range demand {
		if math.IsInf(d, 1) {
			d = 2 * linkRate
		}
		if d > 0 {
			h.Arrive(0, packet.New(id, d*horizon))
		}
	}
	h.AdvanceTo(horizon)
	out := make(map[int]float64, len(demand))
	for id := range demand {
		out[id] = h.Served(id) / horizon
	}
	return out, nil
}

// shareMinPct is the lowest achieved/ideal ratio, in %, over the leaves in
// judged.
func shareMinPct(achieved, ideal map[int]float64, judged []int) float64 {
	minPct := math.Inf(1)
	for _, id := range judged {
		if ideal[id] <= 0 {
			continue
		}
		minPct = math.Min(minPct, 100*achieved[id]/ideal[id])
	}
	if math.IsInf(minPct, 1) {
		return 0
	}
	return minPct
}

// flatShareMin judges a flat engine between two status snapshots: each
// class's demand is what was offered to it, the fluid ideal is GPS over
// the classes' rates, and achieved is what it dequeued.
func flatShareMin(st0, st1 dataplane.Status, secs float64) float64 {
	root := topo.Interior("root", 1)
	demand, achieved := map[int]float64{}, map[int]float64{}
	var judged []int
	for _, c := range st1.Classes {
		root.Children = append(root.Children, topo.Leaf(fmt.Sprint("c", c.ID), c.Rate, c.ID))
		s0, _ := st0.Scheduler.Session(c.ID)
		s1, _ := st1.Scheduler.Session(c.ID)
		demand[c.ID] = (s1.Enqueued.Bits + s1.Dropped.Bits - s0.Enqueued.Bits - s0.Dropped.Bits) / secs
		achieved[c.ID] = (s1.Dequeued.Bits - s0.Dequeued.Bits) / secs
		judged = append(judged, c.ID)
	}
	ideal, err := idealRates(root, st1.Rate, demand)
	if err != nil {
		return 0
	}
	return shareMinPct(achieved, ideal, judged)
}

// batchAvg is datagrams per egress WriteBatch between two snapshots.
func batchAvg(m0, m1 obs.Metrics) float64 {
	if m1.BatchWrites == m0.BatchWrites {
		return 0
	}
	return float64(m1.BatchedPackets-m0.BatchedPackets) / float64(m1.BatchWrites-m0.BatchWrites)
}

// sojournMeanUs is the engine's mean staging delay over all classes
// between two snapshots, in µs.
func sojournMeanUs(m0, m1 obs.Metrics) float64 {
	var sum float64
	var n int64
	for _, s1 := range m1.Sessions {
		s0, _ := m0.Session(s1.ID)
		sum += s1.Delay.Sum - s0.Delay.Sum
		n += s1.Delay.Count - s0.Delay.Count
	}
	if n == 0 {
		return 0
	}
	return 1e6 * sum / float64(n)
}

// dropTailPct is the share of offered datagrams tail-dropped between two
// snapshots, in %.
func dropTailPct(m0, m1 obs.Metrics) float64 {
	offered := m1.Offered() - m0.Offered()
	if offered == 0 {
		return 0
	}
	return 100 * float64(m1.DropReasons[obs.DropTail].Packets-m0.DropReasons[obs.DropTail].Packets) / float64(offered)
}
