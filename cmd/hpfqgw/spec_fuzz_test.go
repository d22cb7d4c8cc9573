package main

import (
	"math"
	"testing"
)

// FuzzGatewaySpecs feeds one string to every flag-spec parser. None may
// panic, and whatever a parser accepts must be usable as is: finite values
// in range, non-empty id lists.
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
		if ids, rates, err := parseClasses(s); err == nil {
			if len(ids) == 0 || len(ids) != len(rates) {
				t.Fatalf("parseClasses(%q): %d ids, %d rates", s, len(ids), len(rates))
			}
			for _, r := range rates {
				if !(r > 0) || math.IsInf(r, 0) {
					t.Fatalf("parseClasses(%q) accepted rate %g", s, r)
				}
			}
		}
		if ids, specs, err := parseFEC(s); err == nil && s != "" {
			if len(ids) == 0 || len(ids) != len(specs) {
				t.Fatalf("parseFEC(%q): %d ids, %d specs", s, len(ids), len(specs))
			}
			for _, sp := range specs {
				if err := sp.Validate(); err != nil {
					t.Fatalf("parseFEC(%q) accepted spec %v: %v", s, sp, err)
				}
			}
		}
		if ps, err := parseGilbert(s); err == nil && s != "" {
			if len(ps) != 4 {
				t.Fatalf("parseGilbert(%q) = %v, want 4 parameters", s, ps)
			}
			for _, p := range ps {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("parseGilbert(%q) accepted probability %g", s, p)
				}
			}
		}
		if sp, err := parseStall(s); err == nil && sp != nil && sp.dur < 0 {
			t.Fatalf("parseStall(%q) accepted duration %v", s, sp.dur)
		}
		if ids, err := parseShedOrder(s); err == nil && len(ids) == 0 {
			t.Fatalf("parseShedOrder(%q) accepted an empty order", s)
		}
		if top, err := parseTopo(s); err == nil {
			if err := top.Validate(); err != nil {
				t.Fatalf("parseTopo(%q) accepted an invalid tree: %v", s, err)
			}
		}
	})
}
