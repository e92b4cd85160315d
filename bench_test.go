// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§6), one benchmark per artifact, at a reduced request scale
// so the whole suite completes in minutes:
//
//	go test -bench=. -benchmem
//
// Run `go run ./cmd/experiments` for the full-scale versions. Each bench
// logs its table (visible with -v) and reports the headline hit ratio as a
// custom metric, so regressions in the reproduced *shape* show up in plain
// benchmark diffs.
package repro_test

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchScale reduces every trace's request count; 0.1 keeps each figure's
// bench in the tens of seconds.
const benchScale = 0.1

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

func env() *experiments.Env {
	envOnce.Do(func() {
		benchEnv = experiments.NewEnv("traces")
		benchEnv.Scale = benchScale
	})
	return benchEnv
}

func logTables(b *testing.B, tables []*report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

func one(t *report.Table, err error) ([]*report.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

// lastPct extracts the numeric value of the last cell of the last row,
// e.g. "63.6%" → 63.6, used as the bench's reported metric.
func lastPct(tables []*report.Table) float64 {
	if len(tables) == 0 {
		return 0
	}
	t := tables[len(tables)-1]
	if len(t.Rows) == 0 {
		return 0
	}
	row := t.Rows[len(t.Rows)-1]
	cell := strings.TrimSpace(strings.TrimSuffix(row[len(row)-1], "%"))
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkFig2HintDomains regenerates the hint-type inventory (Figure 2).
func BenchmarkFig2HintDomains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig2()
		logTables(b, tables, err)
	}
}

// BenchmarkFig3HintPriorities regenerates the hint-set priority analysis of
// Figure 3 (priority vs frequency for every hint set in DB2_C60).
func BenchmarkFig3HintPriorities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig3())
		logTables(b, tables, err)
	}
}

// BenchmarkFig5TraceTable regenerates the trace summary (Figure 5).
func BenchmarkFig5TraceTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig5())
		logTables(b, tables, err)
	}
}

// BenchmarkFig6DB2TPCC regenerates the DB2 TPC-C policy comparison
// (Figure 6): OPT, LRU, ARC, TQ, CLIC across server cache sizes.
func BenchmarkFig6DB2TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig6()
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "CLIC-hit-%")
	}
}

// BenchmarkFig7DB2TPCH regenerates the DB2 TPC-H comparison (Figure 7).
func BenchmarkFig7DB2TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig7()
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "CLIC-hit-%")
	}
}

// BenchmarkFig8MySQLTPCH regenerates the MySQL TPC-H comparison (Figure 8).
func BenchmarkFig8MySQLTPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig8()
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "CLIC-hit-%")
	}
}

// BenchmarkFig9TopK regenerates the top-k hint filtering experiment
// (Figure 9).
func BenchmarkFig9TopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig9()
		logTables(b, tables, err)
	}
}

// BenchmarkFig10Noise regenerates the noise-hint robustness experiment
// (Figure 10).
func BenchmarkFig10Noise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig10())
		logTables(b, tables, err)
	}
}

// BenchmarkFig11MultiClient regenerates the multi-client experiment
// (Figure 11): shared vs partitioned server cache.
func BenchmarkFig11MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().Fig11())
		logTables(b, tables, err)
		b.ReportMetric(lastPct(tables), "overall-hit-%")
	}
}

// BenchmarkAblationDecay sweeps CLIC's decay parameter r (Equation 3).
func BenchmarkAblationDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().AblationR())
		logTables(b, tables, err)
	}
}

// BenchmarkAblationWindow sweeps CLIC's statistics window W (§3.2).
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().AblationW())
		logTables(b, tables, err)
	}
}

// BenchmarkAblationOutqueue sweeps the outqueue size (§3.1).
func BenchmarkAblationOutqueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().AblationOutqueue())
		logTables(b, tables, err)
	}
}

// BenchmarkPolicyZoo compares all ten implemented policies on DB2_C300.
func BenchmarkPolicyZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().PolicyZoo("DB2_C300", experiments.MidCacheSize))
		logTables(b, tables, err)
	}
}

// BenchmarkExtensionGeneralize runs the §8 future-work extension: the
// Figure-10 noise experiment with hint-set generalization in front of CLIC.
func BenchmarkExtensionGeneralize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := one(env().ExtensionGeneralize())
		logTables(b, tables, err)
	}
}

// benchSweep runs the paper's five-policy comparison grid on DB2_C300:
// serially via sim.Sweep when serial is set, otherwise through the
// internal/engine worker pool at GOMAXPROCS. The two produce identical
// results (see internal/engine's golden test); comparing their ns/op is the
// multi-core speedup of the parallel experiment engine.
func benchSweep(b *testing.B, serial bool) {
	e := env()
	t, err := e.Trace("DB2_C300")
	if err != nil {
		b.Fatal(err)
	}
	sizes, err := e.ServerSizes("DB2_C300")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Window: 10000} // scaled like the figure benches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hits float64
		if serial {
			for _, pol := range experiments.PaperPolicies {
				sweep := sim.Sweep(sim.Constructor(pol, t, cfg), t, sizes)
				hits = sweep[len(sweep)-1].HitRatio()
			}
		} else {
			grid, err := engine.Grid(experiments.PaperPolicies, sizes, t, cfg, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sweep := grid[experiments.PaperPolicies[len(experiments.PaperPolicies)-1]]
			hits = sweep[len(sweep)-1].HitRatio()
		}
		b.ReportMetric(100*hits, "CLIC-hit-%")
	}
}

// BenchmarkSweepSerial is the serial baseline for the engine speedup.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, true) }

// BenchmarkSweepParallel is the same grid fanned across all cores.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, false) }

var (
	serveOnce  sync.Once
	serveTrace *trace.Trace
)

// serveBenchTrace interleaves the three DB2 TPC-C client traces (the §6.4
// multi-client scenario) at bench scale, once per test binary.
func serveBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	serveOnce.Do(func() {
		e := env()
		parts := make([]*trace.Trace, 0, 3)
		for _, name := range []string{"DB2_C60", "DB2_C300", "DB2_C540"} {
			t, err := e.Trace(name)
			if err != nil {
				b.Fatal(err)
			}
			parts = append(parts, t)
		}
		merged, err := trace.Interleave("THREE_CLIENTS", parts...)
		if err != nil {
			b.Fatal(err)
		}
		serveTrace = merged
	})
	return serveTrace
}

const serveBenchShards = 8

func serveBenchConfig() core.Config {
	return core.Config{TopK: 100, Window: 50000, Capacity: sim.ClicCapacity(18000)}
}

// serveInProcess replays t through engine.Replay's in-process target over
// front.
func serveInProcess(b *testing.B, front *core.Sharded, t *trace.Trace) sim.Result {
	res, err := engine.Replay(engine.InProcess{Front: front}, t.Source(), engine.ReplayOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportServeMetrics attaches throughput and hit ratio to a serving bench.
func reportServeMetrics(b *testing.B, t *trace.Trace, res sim.Result) {
	b.ReportMetric(float64(t.Len())*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
	b.ReportMetric(100*res.HitRatio(), "hit-%")
}

// BenchmarkServeClients is the in-process serving baseline: one goroutine
// per client drives a shared sharded CLIC front through direct calls.
func BenchmarkServeClients(b *testing.B) {
	t := serveBenchTrace(b)
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		res = serveInProcess(b, core.NewSharded(serveBenchConfig(), serveBenchShards), t)
	}
	reportServeMetrics(b, t, res)
}

// BenchmarkServeLoopback is the same workload through the network stack: a
// TCP server on loopback, one connection per client, batched wire frames.
// Comparing against BenchmarkServeClients prices the protocol overhead.
func BenchmarkServeLoopback(b *testing.B) {
	t := serveBenchTrace(b)
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{Cache: serveBenchConfig(), Shards: serveBenchShards})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		r, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), t.Source(), engine.ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportServeMetrics(b, t, res)
}

// benchShardedReplay prices the statistics-learning mode on the serial
// replay path: the same sharded front and trace, differing only in where
// hint statistics are learned (per-shard partitioned vs shared global).
func benchShardedReplay(b *testing.B, mode core.StatsMode) {
	t := serveBenchTrace(b)
	cfg := serveBenchConfig()
	cfg.Stats = mode
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		res = sim.Run(core.NewSharded(cfg, serveBenchShards), t)
	}
	reportServeMetrics(b, t, res)
}

// BenchmarkShardedPartitioned is the per-shard-learning baseline.
func BenchmarkShardedPartitioned(b *testing.B) { benchShardedReplay(b, core.StatsPartitioned) }

// BenchmarkShardedGlobal is the same replay with the shared lock-striped
// learner; the delta against BenchmarkShardedPartitioned is the cost of
// cache-wide statistics (stripe locks + atomic table loads) without
// concurrency.
func BenchmarkShardedGlobal(b *testing.B) { benchShardedReplay(b, core.StatsGlobal) }

// BenchmarkServeClientsGlobal is BenchmarkServeClients with the shared
// global learner: concurrent client goroutines now contend for the learner
// stripes as well as the shard mutexes, pricing shared learning in the
// serving regime it was built for.
func BenchmarkServeClientsGlobal(b *testing.B) {
	t := serveBenchTrace(b)
	cfg := serveBenchConfig()
	cfg.Stats = core.StatsGlobal
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		res = serveInProcess(b, core.NewSharded(cfg, serveBenchShards), t)
	}
	reportServeMetrics(b, t, res)
}

// BenchmarkShardedSingleOwner replays the serveBench trace through the
// single-owner engine: one producer streaming DefaultAccessBatch-sized
// batches, shard owners running the cache lock-free. The pair against
// BenchmarkShardedPartitioned (same trace, same cache, mutex engine,
// per-request replay) prices the engine: batching amortizes the per-request
// mutex and atomics away, and on multi-core hardware the shard owners also
// run genuinely in parallel with the producer's routing pass.
func BenchmarkShardedSingleOwner(b *testing.B) {
	t := serveBenchTrace(b)
	cfg := serveBenchConfig()
	cfg.Engine = core.EngineOwner
	hits := make([]bool, core.DefaultAccessBatch)
	b.ResetTimer()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		s := core.NewSharded(cfg, serveBenchShards)
		p := s.NewProducer()
		reqs := t.Reqs
		for off := 0; off < len(reqs); off += core.DefaultAccessBatch {
			end := off + core.DefaultAccessBatch
			if end > len(reqs) {
				end = len(reqs)
			}
			p.AccessBatch(reqs[off:end], hits)
		}
		p.Close()
		st = s.Stats()
		s.Close()
	}
	b.ReportMetric(float64(t.Len())*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
	b.ReportMetric(100*st.HitRatio(), "hit-%")
}

// BenchmarkShardedInstrumented is BenchmarkShardedSingleOwner with the full
// observability stack attached: a batch-latency histogram observation per
// AccessBatch and a cache timeline (the clicserve/clicsim column set)
// ticking a CSV row to a discard sink every 64 batches. The delta against
// BenchmarkShardedSingleOwner is the whole price of instrumentation on the
// hot path — it should be noise, and the alloc tests in internal/core pin
// it at zero allocations.
func BenchmarkShardedInstrumented(b *testing.B) {
	t := serveBenchTrace(b)
	cfg := serveBenchConfig()
	cfg.Engine = core.EngineOwner
	hits := make([]bool, core.DefaultAccessBatch)
	b.ResetTimer()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		s := core.NewSharded(cfg, serveBenchShards)
		var lat metrics.Histogram
		tl := metrics.NewTimeline(io.Discard)
		engine.CacheTimeline(tl, s, &lat)
		p := s.NewProducer()
		reqs := t.Reqs
		batches := 0
		for off := 0; off < len(reqs); off += core.DefaultAccessBatch {
			end := off + core.DefaultAccessBatch
			if end > len(reqs) {
				end = len(reqs)
			}
			start := time.Now()
			p.AccessBatch(reqs[off:end], hits)
			lat.Observe(uint64(time.Since(start)))
			if batches++; batches%64 == 0 {
				tl.Tick("interval")
			}
		}
		p.Close()
		tl.Tick("final")
		st = s.Stats()
		s.Close()
	}
	b.ReportMetric(float64(t.Len())*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
	b.ReportMetric(100*st.HitRatio(), "hit-%")
}

// BenchmarkServeClientsOwner is BenchmarkServeClients on the single-owner
// engine: one goroutine per client, each with its own producer handle
// batching into the shard owners.
func BenchmarkServeClientsOwner(b *testing.B) {
	t := serveBenchTrace(b)
	cfg := serveBenchConfig()
	cfg.Engine = core.EngineOwner
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		s := core.NewSharded(cfg, serveBenchShards)
		res = serveInProcess(b, s, t)
		s.Close()
	}
	reportServeMetrics(b, t, res)
}

// BenchmarkServeLoopbackOwner is BenchmarkServeLoopback with the server's
// front on the single-owner engine: the full wire path — decode into reused
// buffers, remap, frame fan-out to the shard owners, encode from reused
// buffers — with no steady-state allocation.
func BenchmarkServeLoopbackOwner(b *testing.B) {
	t := serveBenchTrace(b)
	cfg := serveBenchConfig()
	cfg.Engine = core.EngineOwner
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{Cache: cfg, Shards: serveBenchShards})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		r, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), t.Source(), engine.ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportServeMetrics(b, t, res)
}

// BenchmarkClusterDirectLoopback is the cluster suite's baseline: the
// whole multi-client stream into ONE loopback server via netclient — the
// same path as BenchmarkServeLoopback, recorded under the cluster suite's
// name so BENCH_cluster.json carries its own baseline.
func BenchmarkClusterDirectLoopback(b *testing.B) {
	t := serveBenchTrace(b)
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{Cache: serveBenchConfig(), Shards: serveBenchShards})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		r, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), t.Source(), engine.ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportServeMetrics(b, t, res)
}

// BenchmarkClusterRouterLoopback is the same stream through a 3-node
// merging cluster: per-client routers split every batch by consistent
// hash across three loopback servers sharing the baseline's total
// capacity and window, with window summaries exchanged mid-flight. The
// delta against BenchmarkClusterDirectLoopback prices the router fan-out
// and the merged-learning exchange.
func BenchmarkClusterRouterLoopback(b *testing.B) {
	t := serveBenchTrace(b)
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		h, err := cluster.StartHarness(cluster.HarnessConfig{
			Nodes:   3,
			Cache:   serveBenchConfig(),
			Shards:  serveBenchShards,
			Merging: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := h.Replay(t.Source(), engine.ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportServeMetrics(b, t, res)
}
