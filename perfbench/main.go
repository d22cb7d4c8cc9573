// Command perfbench is the repository's end-to-end and per-layer benchmark.
// One invocation runs one workload, checks that every datagram arrived
// intact and that the packet counts are conserved, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload gw_echo --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - gw_echo: closed-loop 64-byte echo through a real hpfqgw subprocess
//     over loopback UDP, 4 flat WF²Q+ classes, pacing never binds.
//   - gw_tree_fec: open-loop 1000-byte datagrams at 1.5× a 20 Mb/s paced
//     H-WF²Q+ tree with one RS(8,2)-protected leaf, through hpfqgw.
//   - engine_deep: the sharded engine in-process on a 4096-leaf WF²Q+ tree,
//     closed loop with a blocking window, pacing never binds.
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run. A correctness
// violation prints the reason on standard error, a JSON line with
// "correct": false and no metrics, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: gw_echo, gw_tree_fec or engine_deep")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: class interleave and datagram contents")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.gateway, "gateway", "", "path to a built hpfqgw binary (gateway workloads)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.gateway != "" {
		if abs, err := filepath.Abs(cfg.gateway); err == nil {
			cfg.gateway = abs
		}
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace)

	res, err := wl(cfg)
	if res == nil {
		res = &result{}
	}
	if err == nil {
		if cfg.trace {
			res.fillIdleLayers(cfg.workload)
		}
		err = res.checkMetrics(cfg.trace)
	}
	fmt.Fprintf(stdout, "env %s\n", mustJSON(res.env))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		fmt.Fprintln(stdout, mustJSON(outcome{Correct: false, Attempted: res.attempted,
			Failed: res.failed, Metrics: map[string]metricValue{}}))
		return 1
	}
	fmt.Fprint(stdout, res.table(cfg.trace))
	fmt.Fprintln(stdout, mustJSON(res.outcome(cfg.trace)))
	return 0
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gateway  string

	// sinkDropOne makes the upstream sink lose exactly one datagram through
	// a faultconn reader: the correctness gate must then fail.
	sinkDropOne bool
}

var workloads = map[string]func(config) (*result, error){
	"gw_echo":     runEcho,
	"gw_tree_fec": runTree,
	"engine_deep": runEngine,
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are encoded
	}
	return string(b)
}
