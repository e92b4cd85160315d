package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var unitShape = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q uses characters other than letters, digits, _, . and -", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
			if !unitShape.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
			}
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or clashes with a metric", w.name)
		}
		seen[w.name] = true
	}
	for _, r := range rungs {
		for _, suffix := range []string{"_ns_per_req", "_cost_ns_per_req"} {
			if r.below == "" && suffix != "_ns_per_req" {
				continue
			}
			if !declared(r.name + suffix) {
				t.Errorf("rung %s reports %s, which is not a declared per-layer metric", r.name, r.name+suffix)
			}
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json declares
// exactly the workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		def, err := workloadByName(w.Name)
		if err != nil {
			t.Error(err)
		} else if def.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json gives another reason than workloads.go", w.Name)
		}
	}
	for _, tc := range []struct {
		json []metric
		defs []metricDef
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics where the program reports %d", len(tc.json), len(tc.defs))
		}
		units := map[string]string{}
		for _, d := range tc.defs {
			units[d.name] = d.unit
		}
		for _, m := range tc.json {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s) is not reported with that unit", m.Name, m.Unit)
			}
		}
	}
}

func declared(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// shortWorkload is w with a stream small enough for a test run.
func shortWorkload(w workloadDef) *workloadDef {
	w.requests = 60_000
	return &w
}

// TestShortRuns runs every workload briefly, untraced and traced, through
// the same code that prints the result line, and checks that line.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				o := options{seed: 7, seconds: 0, traced: traced, outDir: t.TempDir()}
				if code := runOne(shortWorkload(w), o, &out, io.Discard); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   *bool                      `json:"correct"`
					Attempted *uint64                    `json:"attempted"`
					Failed    *uint64                    `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted == 0 || res.Failed == nil || *res.Failed != 0 {
					t.Fatalf("result line %s", lines[len(lines)-1])
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					raw, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					var m jsonMetric
					if err := json.Unmarshal(raw, &m); err != nil {
						t.Errorf("metric %s: %v", d.name, err)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, m.Value, m.Unit, d.unit)
					}
				}
			})
		}
	}
}

func TestGateCatchesWrongHits(t *testing.T) {
	w := shortWorkload(workloads[0])
	o := options{seed: 3, seconds: 0, outDir: t.TempDir()}
	// A tolerance no replay can meet must fail the run.
	w.hitTolPts = -1
	var out bytes.Buffer
	if code := runOne(w, o, &out, io.Discard); code == 0 {
		t.Fatalf("run passed with an impossible hit tolerance:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not report the failure:\n%s", out.String())
	}
	// A failed run still reports what it measured.
	if !strings.Contains(out.String(), `"answered_pct":{"value":100,`) {
		t.Errorf("failed run does not report answered_pct:\n%s", out.String())
	}
}

// The cluster reference is driven serially on the mutex engine with a
// summary exchange after every batch, so the gate compares each pass
// against a fixed figure.
func TestClusterReferenceDeterministic(t *testing.T) {
	w, err := workloadByName("tpch-cluster")
	if err != nil {
		t.Fatal(err)
	}
	// Enough requests for each node to rotate its window a dozen times.
	w = shortWorkload(*w)
	w.requests = 600_000
	path := streamPath(t.TempDir(), w.name)
	if err := generateStream(w, 5, path); err != nil {
		t.Fatal(err)
	}
	a, err := serialReference(w, path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serialReference(w, path)
	if err != nil {
		t.Fatal(err)
	}
	if a.hits[0] != b.hits[0] || a.reads[0] != b.reads[0] || a.requests[0] != uint64(w.requests) {
		t.Errorf("two serial cluster replays differ: %+v and %+v (stream holds %d requests)", a, b, w.requests)
	}
	if a.hits[0] == 0 {
		t.Error("serial cluster replay got no read hits")
	}
}
