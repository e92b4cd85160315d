package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef names one reported metric and its unit. METRICS.md gives each
// one's layer and the end-to-end metric it should move.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"batch_p50_us", "us"},
	{"batch_p99_us", "us"},
	{"read_hit_pct", "%"},
	{"min_client_hit_pct", "%"},
	{"answered_pct", "%"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"trace.encode_ns_per_req", "ns/req"},
	{"trace.file_bytes_per_req", "B/req"},
	{"trace.scan_ns_per_req", "ns/req"},
	{"netclient.submit_ns_per_req", "ns/req"},
	{"netclient.window_wait_ns_per_batch", "ns/batch"},
	{"netclient.batch_size_mean", "req/batch"},
	{"netclient.batches", "count"},
	{"wire.out_bytes_per_req", "B/req"},
	{"wire.in_bytes_per_req", "B/req"},
	{"wire.codec_ns_per_req", "ns/req"},
	{"wire.codec_cost_ns_per_req", "ns/req"},
	{"server.batch_service_p50_us", "us"},
	{"server.batch_service_p99_us", "us"},
	{"server.batches_per_flush", "batch/flush"},
	{"server.rtt_minus_service_p50_us", "us"},
	{"core.access_ns_per_req", "ns/req"},
	{"core.owner_ns_per_req", "ns/req"},
	{"core.owner_cost_ns_per_req", "ns/req"},
	{"core.evictions_per_read_miss", "ratio"},
	{"core.shard_read_skew", "ratio"},
	{"core.rotations", "count"},
	{"core.rotation_batch_p50_us", "us"},
	{"clicstats.tracked_hint_sets", "count"},
	{"cluster.node_req_skew", "ratio"},
	{"cluster.sub_batches_per_batch", "ratio"},
	{"cluster.summaries_absorbed", "count"},
	{"cluster.merge_rounds", "count"},
	{"go.allocs_per_req", "allocs/req"},
	{"go.gc_pause_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"span.batch.self_us", "us"},
	{"span.scan.self_us", "us"},
	{"span.submit.self_us", "us"},
	{"span.wait.self_us", "us"},
	{"span.handle.self_us", "us"},
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricSet collects measured values by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render returns the declared metrics keyed by name with their units. It
// fails when one was not measured or is not finite, unless partial is
// set, when it leaves such metrics out.
func (m metricSet) render(defs []metricDef, partial bool) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		switch {
		case partial && (!ok || !finite):
			continue
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case !finite:
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return out, nil
}
