package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Registry series the per-layer metrics read.
const (
	seriesBatches   = "clic_server_batches_total"
	seriesFlushes   = "clic_server_flushes_total"
	seriesWireBytes = `clic_wire_bytes_total{dir="encoded"}`
	seriesAbsorbed  = "clic_cluster_summaries_absorbed_total"
	seriesRounds    = "clic_cluster_merge_rounds_total"
)

// layerMetrics computes the per-layer metrics of a traced run: counters
// and spans from the traced passes, the in-process rungs and the stream
// stages timed alone, and the tracing overhead against the untraced
// passes.
func layerMetrics(w *workloadDef, seed int64, path string, plain, traced []*passResult, m metricSet) error {
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("a traced run needs untraced and traced passes")
	}
	if err := streamStages(w, seed, path, m); err != nil {
		return err
	}
	passMetrics(traced, m)

	var plainTput, tracedTput []float64
	for _, p := range plain {
		plainTput = append(plainTput, p.throughput())
	}
	for _, p := range traced {
		tracedTput = append(tracedTput, p.throughput())
	}
	u := median(plainTput)
	m.set("bench.trace_overhead_pct", 100*ratio(u-median(tracedTput), u))
	m.set("trace.file_bytes_per_req", ratio(float64(traced[0].fileBytes), float64(traced[0].attempted)))
	return nil
}

// rungRequests caps the stream prefix the rungs and the encode timing run
// over, so a traced run holds at most this many requests in memory.
const rungRequests = 2_000_000

// streamStages times the stream's own stages alone: generation into a
// discarding sink, scanning the v2 file, and encoding a prefix of it again
// from memory; then runs the rungs over that prefix.
func streamStages(w *workloadDef, seed int64, path string, m metricSet) error {
	spec, err := w.spec(seed)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := spec.GenerateTo(&nullSink{dict: hint.NewDict()}); err != nil {
		return err
	}
	m.set("workload.gen_s", time.Since(start).Seconds())

	sc, err := trace.Open(path)
	if err != nil {
		return err
	}
	n := 0
	start = time.Now()
	for sc.Scan() {
		n++
	}
	scanNs := time.Since(start).Nanoseconds()
	sc.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	m.set("trace.scan_ns_per_req", ratio(float64(scanNs), float64(n)))

	t, err := loadPrefix(path, rungRequests)
	if err != nil {
		return err
	}
	start = time.Now()
	wr := trace.NewWriter(io.Discard, t.Name, t.PageSize, t.Clients, trace.WriterOptions{})
	for _, k := range t.Dict.Keys() {
		wr.HintDict().InternKey(k)
	}
	for _, r := range t.Reqs {
		wr.AppendReq(r)
	}
	if err := wr.Close(); err != nil {
		return err
	}
	m.set("trace.encode_ns_per_req", ratio(float64(time.Since(start).Nanoseconds()), float64(len(t.Reqs))))
	return runRungs(w, t, m)
}

// loadPrefix reads the first n requests of a trace file into memory.
func loadPrefix(path string, n int) (*trace.Trace, error) {
	sc, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	t := trace.New(sc.Name(), sc.PageSize())
	t.Reqs = make([]trace.Request, 0, n)
	for len(t.Reqs) < n && sc.Scan() {
		t.Reqs = append(t.Reqs, sc.Request())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Dict = sc.HintDict().Clone()
	t.Clients = sc.Clients()
	return t, t.Validate()
}

// passMetrics derives the counter- and span-based layer metrics from the
// traced passes.
func passMetrics(passes []*passResult, m metricSet) {
	var (
		answered, outBytes             uint64
		submitNs, waitNs               int64
		rtts, rotRTTs                  []int64
		wireBytes, srvBatches, flushes float64
		absorbed, rounds               float64
		evictions, misses, rotations   uint64
		tracked                        int
		shardSkew, nodeSkew            float64
		allocs, pauseNs                uint64
		service                        metrics.HistSnapshot
		self                           = make([][]int64, 1+len(spanNames))
	)
	for _, p := range passes {
		for _, c := range p.clients {
			answered += c.answered
			outBytes += c.outBytes
			rtts = append(rtts, c.rtts...)
			for _, s := range c.spans {
				submitNs += s.submit.dur()
				waitNs += s.wait.dur()
				if s.rotated {
					rotRTTs = append(rotRTTs, s.rtt)
				}
				children := s.children()
				self[0] = append(self[0], selfTime(s.root, children))
				for i, iv := range children {
					self[i+1] = append(self[i+1], iv.dur())
				}
			}
		}
		a, b := p.after, p.before
		wireBytes += a.registry[0][seriesWireBytes] - b.registry[0][seriesWireBytes]
		srvBatches += a.sum(seriesBatches) - b.sum(seriesBatches)
		flushes += a.sum(seriesFlushes) - b.sum(seriesFlushes)
		absorbed += a.sum(seriesAbsorbed) - b.sum(seriesAbsorbed)
		rounds += a.sum(seriesRounds) - b.sum(seriesRounds)
		tracked += a.tracked
		var shardReads, nodeReqs []uint64
		for i := range a.stats {
			evictions += a.stats[i].Evictions - b.stats[i].Evictions
			misses += a.stats[i].ReadMisses - b.stats[i].ReadMisses
			rotations += uint64(a.stats[i].Windows - b.stats[i].Windows)
			nodeReqs = append(nodeReqs, a.stats[i].Requests-b.stats[i].Requests)
			for j := range a.shards[i] {
				shardReads = append(shardReads, a.shards[i][j]-b.shards[i][j])
			}
		}
		shardSkew += skew(shardReads)
		nodeSkew += skew(nodeReqs)
		for i := range service.Counts {
			service.Counts[i] += a.service.Counts[i] - b.service.Counts[i]
		}
		allocs += p.mem1.Mallocs - p.mem0.Mallocs
		pauseNs += p.mem1.PauseTotalNs - p.mem0.PauseTotalNs
	}
	n := float64(len(passes))
	req := float64(answered)
	batches := float64(len(rtts))
	svcP50 := service.Quantile(0.50) / 1e3

	m.set("netclient.submit_ns_per_req", ratio(float64(submitNs), req))
	m.set("netclient.window_wait_ns_per_batch", ratio(float64(waitNs), batches))
	m.set("netclient.batch_size_mean", ratio(req, batches))
	m.set("netclient.batches", batches/n)
	m.set("wire.out_bytes_per_req", ratio(float64(outBytes), req))
	m.set("wire.in_bytes_per_req", ratio(wireBytes-float64(outBytes), req))
	m.set("server.batch_service_p50_us", svcP50)
	m.set("server.batch_service_p99_us", service.Quantile(0.99)/1e3)
	m.set("server.batches_per_flush", ratio(srvBatches, flushes))
	m.set("server.rtt_minus_service_p50_us", float64(quantile(rtts, 0.50))/1e3-svcP50)
	m.set("core.evictions_per_read_miss", ratio(float64(evictions), float64(misses)))
	m.set("core.shard_read_skew", shardSkew/n)
	m.set("core.rotations", float64(rotations)/n)
	m.set("core.rotation_batch_p50_us", float64(quantile(rotRTTs, 0.50))/1e3)
	m.set("clicstats.tracked_hint_sets", float64(tracked)/n)
	m.set("cluster.node_req_skew", nodeSkew/n)
	m.set("cluster.sub_batches_per_batch", ratio(srvBatches, batches))
	m.set("cluster.summaries_absorbed", absorbed/n)
	m.set("cluster.merge_rounds", rounds/n)
	m.set("go.allocs_per_req", ratio(float64(allocs), req))
	m.set("go.gc_pause_ms", float64(pauseNs)/1e6/n)
	m.set("span.batch.self_us", float64(quantile(self[0], 0.50))/1e3)
	for i, name := range spanNames {
		m.set("span."+name+".self_us", float64(quantile(self[i+1], 0.50))/1e3)
	}
}
