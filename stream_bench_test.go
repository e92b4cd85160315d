// Per-stage benchmarks for the streaming trace pipeline: generation
// (serial and parallel multi-client), v2 block encoding, scanning,
// streaming hint projection and noise dilution, and the streaming serve
// path. Every stage reports reqs/s (and bytes/s where bytes move), so
// `go run ./cmd/benchrecord -suite gen` records the full pipeline's
// throughput into BENCH_gen.json. Profile one stage with the usual flags:
//
//	go test -run ^$ -bench BenchmarkGenScan -cpuprofile cpu.out .
package repro_test

import (
	"bytes"
	"io"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hint"
	"repro/internal/hintproj"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

const genBenchReqs = 200000

// countSink absorbs a request stream without storing it — the measuring
// cup for generator and transform stages, so their cost is not polluted by
// trace materialisation.
type countSink struct {
	dict  *hint.Dict
	n     int
	reads uint64
}

func newCountSink() *countSink { return &countSink{dict: hint.NewDict()} }

func (s *countSink) HintDict() *hint.Dict { return s.dict }
func (s *countSink) Len() int             { return s.n }
func (s *countSink) AppendReq(r trace.Request) {
	s.n++
	if r.Op == trace.Read {
		s.reads++
	}
}

func genBenchPreset(b *testing.B) workload.Preset {
	b.Helper()
	p, err := workload.PresetByName("DB2_C60")
	if err != nil {
		b.Fatal(err)
	}
	p.Requests = genBenchReqs
	return p
}

func reportGenMetrics(b *testing.B, reqs int) {
	b.ReportMetric(float64(reqs)*float64(b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkGenSerial is the single-client generation baseline: one dbsim
// client emitting straight into a counting sink.
func BenchmarkGenSerial(b *testing.B) {
	p := genBenchPreset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newCountSink()
		if err := workload.GenerateTo(p, sink); err != nil {
			b.Fatal(err)
		}
		if sink.n != genBenchReqs {
			b.Fatalf("generated %d requests, want %d", sink.n, genBenchReqs)
		}
	}
	reportGenMetrics(b, genBenchReqs)
}

// BenchmarkGenParallel generates four clients concurrently through bounded
// pipes and merges them in canonical order — the parallel path whose output
// is proven bit-identical to the serial one by the workload golden tests.
func BenchmarkGenParallel(b *testing.B) {
	spec, err := workload.ParseSpec("DB2_C60*4:" + itoa(genBenchReqs))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newCountSink()
		if err := spec.GenerateTo(sink); err != nil {
			b.Fatal(err)
		}
		if sink.n != genBenchReqs {
			b.Fatalf("generated %d requests, want %d", sink.n, genBenchReqs)
		}
	}
	reportGenMetrics(b, genBenchReqs)
}

// BenchmarkGenEncode prices the v2 block encoder alone: an in-RAM trace
// streamed through the parallel writer into io.Discard.
func BenchmarkGenEncode(b *testing.B) {
	t := genBenchTrace(b)
	var written uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := trace.NewWriter(io.Discard, t.Name, t.PageSize, t.Clients, trace.WriterOptions{})
		for id := 0; id < t.Dict.Len(); id++ {
			w.HintDict().InternKey(t.Dict.Key(hint.ID(id)))
		}
		for _, r := range t.Reqs {
			w.AppendReq(r)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		written = w.Bytes()
	}
	reportGenMetrics(b, t.Len())
	b.ReportMetric(float64(written)*float64(b.N)/b.Elapsed().Seconds(), "bytes/s")
}

// BenchmarkGenScan prices decoding: a v2 byte stream scanned end to end.
// The steady-state scan is allocation-free (pinned by the trace package's
// alloc test), so this is pure varint/branch work.
func BenchmarkGenScan(b *testing.B) {
	t := genBenchTrace(b)
	var buf bytes.Buffer
	if err := trace.WriteBinaryV2(&buf, t); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := trace.NewScanner(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n != t.Len() {
			b.Fatalf("scanned %d requests, want %d", n, t.Len())
		}
	}
	reportGenMetrics(b, t.Len())
}

// BenchmarkGenProject prices the streaming hint projection stage.
func BenchmarkGenProject(b *testing.B) {
	t := genBenchTrace(b)
	types := []string{"objtype"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newCountSink()
		it := t.Iter()
		if err := hintproj.ProjectStream(it, sink, types); err != nil {
			b.Fatal(err)
		}
		it.Close()
	}
	reportGenMetrics(b, t.Len())
}

// BenchmarkGenNoise prices the streaming noise dilution stage (§6.3's
// transform, three junk types).
func BenchmarkGenNoise(b *testing.B) {
	t := genBenchTrace(b)
	cfg := trace.DefaultNoise(3, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newCountSink()
		it := t.Iter()
		if err := trace.StreamNoise(it, sink, cfg); err != nil {
			b.Fatal(err)
		}
		it.Close()
	}
	reportGenMetrics(b, t.Len())
}

// BenchmarkGenPipeline is the end-to-end generation path the CI smoke runs
// at 10M-request scale: parallel multi-client generation, canonical merge,
// parallel v2 block encoding — measured here into io.Discard so disk speed
// does not gate the number.
func BenchmarkGenPipeline(b *testing.B) {
	spec, err := workload.ParseSpec("DB2_C60*4:" + itoa(genBenchReqs))
	if err != nil {
		b.Fatal(err)
	}
	var written uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := trace.NewWriter(io.Discard, spec.Preset.Name, spec.Preset.PageSize,
			spec.ClientNames(), trace.WriterOptions{})
		if err := spec.GenerateTo(w); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		written = w.Bytes()
	}
	reportGenMetrics(b, genBenchReqs)
	b.ReportMetric(float64(written)*float64(b.N)/b.Elapsed().Seconds(), "bytes/s")
}

// BenchmarkServeIterator is BenchmarkServeClients streamed from disk: the
// same interleaved trace and sharded front, replayed from a v2 trace file,
// so the scan, the dispatch to client goroutines and the serving all run
// at once. The delta against BenchmarkServeClients prices the v2 scan.
func BenchmarkServeIterator(b *testing.B) {
	t := serveBenchTrace(b)
	path := filepath.Join(b.TempDir(), "serve.trc")
	if err := trace.SaveV2(path, t); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res sim.Result
	for i := 0; i < b.N; i++ {
		front := core.NewSharded(serveBenchConfig(), serveBenchShards)
		r, err := engine.Replay(engine.InProcess{Front: front}, trace.FileSource(path), engine.ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	reportServeMetrics(b, t, res)
}

var genTraceOnce struct {
	t *trace.Trace
}

// genBenchTrace generates the encode/scan/transform input once per binary.
func genBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	if genTraceOnce.t == nil {
		t, err := workload.Generate(genBenchPreset(b))
		if err != nil {
			b.Fatal(err)
		}
		genTraceOnce.t = t
	}
	return genTraceOnce.t
}

func itoa(n int) string { return strconv.Itoa(n) }
