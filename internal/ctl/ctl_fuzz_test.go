package ctl

import (
	"encoding/json"
	"math"
	"net/url"
	"testing"

	"hpfq/internal/dataplane"
)

// FuzzMutationQuery drives every mutation endpoint, on a flat and on a
// topology engine, with fuzzed id/rate/ceil/weight/policy query values —
// NaN, ±Inf, negative, huge, hex floats, junk. Every reply must be the
// {"ok": true} or 400 {"ok": false, "error": …} convention, and whatever a
// mutation accepted must leave the engine describable: every rate and
// share finite and positive, every ceiling finite and non-negative, and
// /api/status valid JSON.
func FuzzMutationQuery(f *testing.F) {
	f.Add("0", "5e6", "8e6", "2", "SP")
	f.Add("1", "NaN", "Inf", "-Inf", "WF2Q+")
	f.Add("-1", "-5", "-0", "0", "")
	f.Add("7", "1e309", "+Inf", "nan", "bogus")
	f.Add("99999999999999999999", "0x1p-2", "1e-320", "1e308", "DRR")
	f.Add("2", "4.9e-324", "0", "1e-9", "FIFO")
	f.Add("-1", "5e6", "0", "1", "SP")           // negative id, valid values
	f.Add("100000000", "5e6", "0", "1", "WF2Q+") // an id the schedulers cannot index
	f.Fuzz(func(t *testing.T, id, rate, ceil, weight, policy string) {
		for _, d := range []*dataplane.Dataplane{flatEngine(t), topoEngine(t)} {
			s := New(d)
			for _, m := range []struct {
				path string
				q    url.Values
			}{
				{"/api/class/add", url.Values{"id": {id}, "rate": {rate}}},
				{"/api/class/add", url.Values{"id": {id}, "parent": {"agg"}, "name": {"f" + id}, "share": {weight}, "ceil": {ceil}}},
				{"/api/class/rate", url.Values{"id": {id}, "rate": {rate}}},
				{"/api/class/ceil", url.Values{"id": {id}, "ceil": {ceil}}},
				{"/api/node/weight", url.Values{"name": {"agg"}, "share": {weight}}},
				{"/api/node/ceil", url.Values{"name": {"agg"}, "ceil": {ceil}}},
				{"/api/node/policy", url.Values{"node": {"agg"}, "policy": {policy}}},
				{"/api/class/remove", url.Values{"id": {id}}},
			} {
				rec := post(t, s, m.path, m.q)
				var reply struct {
					OK    bool   `json:"ok"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Fatalf("%s %v: reply %d %q is not JSON: %v", m.path, m.q, rec.Code, rec.Body.String(), err)
				}
				if ok := rec.Code == 200 && reply.OK && reply.Error == ""; !ok && (rec.Code != 400 || reply.OK || reply.Error == "") {
					t.Fatalf("%s %v: reply %d %q breaks the ok/error convention", m.path, m.q, rec.Code, rec.Body.String())
				}
				checkDescribable(t, s, d, m.path, m.q)
			}
		}
	})
}

// checkDescribable fails when the engine's state holds a value no
// mutation should have let in.
func checkDescribable(t *testing.T, s *Server, d *dataplane.Dataplane, path string, q url.Values) {
	t.Helper()
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	st := d.Status()
	for _, c := range st.Classes {
		if !finite(c.Rate) || c.Rate <= 0 || !finite(c.Ceil) || c.Ceil < 0 {
			t.Fatalf("after %s %v: class %d has rate %v ceil %v", path, q, c.ID, c.Rate, c.Ceil)
		}
	}
	for _, n := range st.Nodes {
		if !finite(n.Rate) || n.Rate <= 0 || !finite(n.Share) || n.Share <= 0 {
			t.Fatalf("after %s %v: node %q has rate %v share %v", path, q, n.Name, n.Rate, n.Share)
		}
	}
	if rec := get(t, s, "/api/status"); rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("after %s %v: /api/status %d is not valid JSON", path, q, rec.Code)
	}
}
