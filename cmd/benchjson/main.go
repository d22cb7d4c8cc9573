// Command benchjson converts `go test -bench` output on stdin into a small
// machine-readable JSON document, so benchmark results can be checked in
// and diffed (see `make bench`, which refreshes BENCH_dataplane.json).
//
//	go test -bench . -benchmem | benchjson -out BENCH.json
//
// It captures the goos/goarch/cpu header lines, the machine's CPU
// count (nproc) and GOMAXPROCS — read by benchjson itself, which in a
// pipeline such as `make bench` runs on the benchmark's machine with its
// environment — and, per benchmark line, the package of the last "pkg:"
// line above it, the iteration count and every "value unit" metric pair
// (ns/op, B/op, allocs/op go to named fields; anything else lands in
// "extra"). The document's own "pkg" is set when every benchmark comes
// from one package, as from one `go test` run.
// Parsing nothing is an error — an empty document would silently pass for
// a fresh result. When -out names an existing document, its benchmarks
// are kept under "previous", so every refresh checks in a before/after
// pair.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Nproc      int      `json:"nproc"`
	Gomaxprocs int      `json:"gomaxprocs"`
	Benchmarks []result `json:"benchmarks"`
	// Previous holds the benchmarks of the -out document this one
	// replaced: the "before" of the pair.
	Previous []result `json:"previous,omitempty"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout, keeping the replaced document's benchmarks as \"previous\"")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run converts the benchmark output on r into a document and writes it to
// the file out, keeping the benchmarks of the document it replaces under
// "previous", or to w when out is empty.
func run(r io.Reader, w io.Writer, out string) error {
	doc, err := parse(r)
	doc.Nproc, doc.Gomaxprocs = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if err == nil && out != "" {
		doc.Previous, err = previous(out)
	}
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "" {
		_, err = w.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

func parse(r io.Reader) (document, error) {
	var doc document
	var pkg string // the package of the results that follow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if res, ok := parseResult(line); ok {
				res.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("no benchmark result lines on stdin")
	}
	doc.Pkg = doc.Benchmarks[0].Pkg
	for _, res := range doc.Benchmarks {
		if res.Pkg != doc.Pkg {
			doc.Pkg = ""
			break
		}
	}
	return doc, nil
}

// parseResult parses one "BenchmarkName  N  v1 unit1  v2 unit2 ..." line.
func parseResult(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	it, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: f[0], Iterations: it}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			break // not a metric pair; the rest of the line isn't either
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[unit] = v
		}
	}
	return res, true
}

// previous returns the benchmarks of the document at path, or none when
// there is no such file.
func previous(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Benchmarks, nil
}
