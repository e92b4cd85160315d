// Command clicbench is the repository's benchmark. It replays seeded,
// generated database I/O streams against the CLIC cache server over
// loopback TCP and reports end-to-end metrics (--trace 0) or per-layer
// metrics (--trace 1), after checking that every answer is correct.
//
// Run from the repository root:
//
//	bash clicbench/run.sh --workload tpcc-stream --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// any correctness check fails. METRICS.md is the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/netclient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record describes a run completely enough to reproduce it and to refuse
// comparing it with a record from another host.
type record struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Stream   string   `json:"stream"`
	Cache    any      `json:"cache"`
	Server   any      `json:"server"`
	Passes   int      `json:"passes"`
	Samples  int      `json:"rtt_samples"`
	Host     hostInfo `json:"host"`
	StealPct float64  `json:"host_steal_pct"`
	Problems []string `json:"problems,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clicbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed of the generated stream")
	seconds := fs.Float64("seconds", 10, "replay time to measure")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "clicbench-out"), "directory for stream files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "clicbench: --trace must be 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *out}
	defs := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "clicbench:", err)
			return 2
		}
		defs = []workloadDef{*w}
	}
	code := 0
	for i := range defs {
		if c := runOne(&defs[i], o, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its report, record and result line.
func runOne(w *workloadDef, o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "clicbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	spec, _ := w.spec(o.seed)
	rec := record{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Stream: spec.String(),
		Cache:  fmt.Sprintf("%+v", w.cacheConfig()),
		Server: map[string]any{
			"nodes": max(w.nodes, 1), "shards_per_node": w.shards, "cache_pages": w.cache,
			"depth": netclient.DefaultDepth, "adaptive_batches": true, "merging": w.nodes > 0,
		},
		Passes: res.passes, Samples: res.samples, Host: fingerprint(), StealPct: res.stealPct,
		Problems: res.problems,
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "clicbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", recLine)
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "GATE FAILED %s: %s\n", w.name, p)
	}
	if res.spansPath != "" {
		fmt.Fprintf(stdout, "spans written to %s\n", res.spansPath)
	}

	// A run that failed the gate still reports what it measured (so
	// answered_pct shows what went unanswered), leaving out what it could
	// not measure.
	metrics, err := res.metrics.render(defs, len(res.problems) > 0)
	if err != nil {
		fmt.Fprintf(stderr, "clicbench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-12s %-36s %14.4f %s\n", w.name, n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "clicbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}
