package main

import (
	"math"
	"testing"

	"hpfq"
)

// FuzzGatewaySpecs feeds one string to every flag-spec parser: the per-class
// id=value parser as -classes and as -fec reads it, -fault.stall's, and
// -topo's hpfq.ParseTopology. None may panic, and whatever a parser accepts
// must be usable as is: finite values in range, non-empty id lists.
func FuzzGatewaySpecs(f *testing.F) {
	for _, seed := range []string{
		"0=6e6,1=4e6", "0=rs-8-2,1=xor-8", "0.01,0.3", "0.01,0.3,0,0.9",
		"100,2s", "0", "3,1,2", "root=1(agg=3(a=2^5e6!rs-4-2:0,b=1:1),c=1:2)",
		// Accepted before non-finite values were refused at parse time.
		"0=NaN", "0=+Inf", "0=inf,1=1e6", "NaN,0.5", "0.5,0.5,NaN,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if ids, rates, err := parseIDSpec("class", s, parseRate); err == nil {
			if len(ids) == 0 || len(ids) != len(rates) {
				t.Fatalf("class spec %q: %d ids, %d rates", s, len(ids), len(rates))
			}
			for _, r := range rates {
				if !(r > 0) || math.IsInf(r, 0) {
					t.Fatalf("class spec %q accepted rate %g", s, r)
				}
			}
		}
		if ids, specs, err := parseIDSpec("fec", s, hpfq.ParseFECSpec); err == nil {
			if len(ids) == 0 || len(ids) != len(specs) {
				t.Fatalf("fec spec %q: %d ids, %d specs", s, len(ids), len(specs))
			}
			for _, sp := range specs {
				if err := sp.Validate(); err != nil {
					t.Fatalf("fec spec %q accepted scheme %v: %v", s, sp, err)
				}
			}
		}
		if sp, err := parseStall(s); err == nil && sp != nil && sp.dur < 0 {
			t.Fatalf("parseStall(%q) accepted duration %v", s, sp.dur)
		}
		if top, err := hpfq.ParseTopology(s); err == nil {
			if err := top.Validate(); err != nil {
				t.Fatalf("ParseTopology(%q) accepted an invalid tree: %v", s, err)
			}
		}
	})
}
