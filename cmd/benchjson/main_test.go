package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hpfq/internal/dataplane
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPumpPerPacket 	 1551600	       756.7 ns/op	     156 B/op	       1 allocs/op
BenchmarkPumpBatched-8   	 1847384	       643.3 ns/op	       0 B/op	       0 allocs/op	  12.50 MB/s
PASS
ok  	hpfq/internal/dataplane	3.813s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "hpfq/internal/dataplane" {
		t.Errorf("header = %q/%q/%q", doc.Goos, doc.Goarch, doc.Pkg)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	pp := doc.Benchmarks[0]
	if pp.Name != "BenchmarkPumpPerPacket" || pp.Iterations != 1551600 {
		t.Errorf("first = %+v", pp)
	}
	if pp.NsPerOp != 756.7 || pp.BytesPerOp != 156 || pp.AllocsPerOp != 1 {
		t.Errorf("first metrics = %+v", pp)
	}
	ba := doc.Benchmarks[1]
	if ba.Name != "BenchmarkPumpBatched-8" || ba.AllocsPerOp != 0 {
		t.Errorf("second = %+v", ba)
	}
	if ba.Extra["MB/s"] != 12.5 {
		t.Errorf("extra metric lost: %+v", ba.Extra)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Error("no benchmark lines accepted")
	}
	if _, ok := parseResult("BenchmarkBroken zero ns/op"); ok {
		t.Error("malformed iteration count accepted")
	}
	if _, ok := parseResult("not a benchmark"); ok {
		t.Error("non-benchmark line accepted")
	}
}

// TestPrevious: writing over an existing -out document keeps its
// benchmarks under "previous"; a first write has none, and a malformed
// document to replace is an error.
func TestPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	read := func() document {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if err := run(strings.NewReader(sample), nil, path); err != nil {
		t.Fatal(err)
	}
	first := read()
	if first.Previous != nil {
		t.Errorf("first write has previous = %+v, want none", first.Previous)
	}
	next := strings.Replace(sample, "BenchmarkPumpPerPacket", "BenchmarkPumpNext", 1)
	if err := run(strings.NewReader(next), nil, path); err != nil {
		t.Fatal(err)
	}
	second := read()
	if len(second.Previous) != len(first.Benchmarks) || second.Previous[0].Name != first.Benchmarks[0].Name {
		t.Errorf("previous = %+v, want the replaced benchmarks %+v", second.Previous, first.Benchmarks)
	}
	if second.Benchmarks[0].Name == first.Benchmarks[0].Name {
		t.Errorf("benchmarks = %+v, want the new run", second.Benchmarks)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sample), nil, path); err == nil {
		t.Error("malformed document to replace accepted")
	}
}

// TestRecordsProcs: every document names the CPU count and GOMAXPROCS it
// was recorded under, on stdout and in an -out file alike.
func TestRecordsProcs(t *testing.T) {
	check := func(b []byte) {
		t.Helper()
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Nproc != runtime.NumCPU() || doc.Gomaxprocs != runtime.GOMAXPROCS(0) {
			t.Errorf("nproc %d, gomaxprocs %d; want %d, %d",
				doc.Nproc, doc.Gomaxprocs, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		}
	}
	var out strings.Builder
	if err := run(strings.NewReader(sample), &out, ""); err != nil {
		t.Fatal(err)
	}
	check([]byte(out.String()))
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(strings.NewReader(sample), nil, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check(b)
}
