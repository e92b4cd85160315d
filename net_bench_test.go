// Network-path benchmarks: the §6.4 three-client loopback replay at
// in-flight depth 1 (lock-step, one round trip per batch — the v2
// behaviour) versus the pipelined default, with batch round-trip latency
// quantiles. `go run ./cmd/benchrecord -suite net` records these into
// BENCH_net.json; CI replays the comparison as a smoke check.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchNetReplay runs the standard serving workload through TCP loopback
// with the given replay options and reports throughput, hit ratio, and
// batch-RTT p50/p99 (microseconds) over just this benchmark's batches.
func benchNetReplay(b *testing.B, t *trace.Trace, opt engine.ReplayOptions) {
	cfg := serveBenchConfig()
	cfg.Engine = core.EngineOwner
	var before, after metrics.HistSnapshot
	netclient.BatchRTT().Snapshot(&before)
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer() // server construction and teardown are not the serve path
		srv := server.New(server.Config{Cache: cfg, Shards: serveBenchShards})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), t.Source(), opt)
		if err != nil {
			b.Fatal(err)
		}
		res = r
		b.StopTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	netclient.BatchRTT().Snapshot(&after)
	after.Sub(&before)
	reportServeMetrics(b, t, res)
	b.ReportMetric(after.Quantile(0.50)/1e3, "p50_us")
	b.ReportMetric(after.Quantile(0.99)/1e3, "p99_us")
}

// BenchmarkNetDepth1 is the lock-step baseline: one batch in flight, the
// client stalled for a full round trip per batch, fixed 512-request
// batches (the sweet spot, so the comparison isolates pipelining).
func BenchmarkNetDepth1(b *testing.B) {
	benchNetReplay(b, serveBenchTrace(b), engine.ReplayOptions{Depth: 1, BatchSize: 512})
}

// BenchmarkNetPipelined is the saturating configuration: the default
// in-flight window with adaptive batch sizing, coalesced writes on both
// sides. The ratio over BenchmarkNetDepth1 is the pipelining win.
func BenchmarkNetPipelined(b *testing.B) {
	benchNetReplay(b, serveBenchTrace(b), engine.ReplayOptions{})
}
