// The replay driver's target table: every target (in process, loopback at
// depth 1 and at the default depth, a 1-node cluster) over every kind of
// source (in-RAM trace, v2 file, text file, generator spec) must count
// reads exactly, label its result the same way, and — with one client —
// reproduce a serial replay's hits exactly.
package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hint"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// target starts one replay target over a fresh cache built from cfg and
// shards; stats reads that cache's own counters.
type target struct {
	name  string
	opt   engine.ReplayOptions
	start func(t *testing.T, cfg core.Config, shards int) (tg engine.Target, stats func() core.Stats)
}

var targets = []target{
	{"in-process", engine.ReplayOptions{}, startInProcess},
	{"loopback-depth1", engine.ReplayOptions{Depth: 1}, startLoopback},
	{"loopback", engine.ReplayOptions{}, startLoopback},
	{"cluster-1node", engine.ReplayOptions{}, startCluster},
}

func startInProcess(t *testing.T, cfg core.Config, shards int) (engine.Target, func() core.Stats) {
	s := core.NewSharded(cfg, shards)
	t.Cleanup(s.Close)
	return engine.InProcess{Front: s}, s.Stats
}

func startLoopback(t *testing.T, cfg core.Config, shards int) (engine.Target, func() core.Stats) {
	srv := server.New(server.Config{Cache: cfg, Shards: shards})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return netclient.NewTarget(srv.Addr().String()), srv.Cache().Stats
}

func startCluster(t *testing.T, cfg core.Config, shards int) (engine.Target, func() core.Stats) {
	h, err := cluster.StartHarness(cluster.HarnessConfig{Nodes: 1, Cache: cfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return cluster.NewTarget(h.Nodes()), h.Server(0).Cache().Stats
}

// source opens one way of streaming the spec's trace tr.
type source struct {
	name string
	make func(t *testing.T, spec workload.Spec, tr *trace.Trace) trace.Source
}

var sources = []source{
	{"ram", func(_ *testing.T, _ workload.Spec, tr *trace.Trace) trace.Source { return tr.Source() }},
	{"v2-file", writeV2},
	{"text-file", writeText},
	{"generator", func(_ *testing.T, spec workload.Spec, _ *trace.Trace) trace.Source { return spec.Source() }},
}

// writeV2 writes tr as a v2 file whose small blocks interleave dictionary
// sections with requests, so hint keys arrive mid-stream.
func writeV2(t *testing.T, _ workload.Spec, tr *trace.Trace) trace.Source {
	path := filepath.Join(t.TempDir(), "t.clic")
	w, err := trace.Create(path, tr.Name, tr.PageSize, tr.Clients, trace.WriterOptions{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := w.HintDict()
	for _, r := range tr.Reqs {
		for id := d.Len(); id <= int(r.Hint); id++ {
			d.InternKey(tr.Dict.Key(hint.ID(id)))
		}
		w.AppendReq(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.FileSource(path)
}

// writeText writes tr in the text format, whose dictionary is discovered
// while scanning.
func writeText(t *testing.T, _ workload.Spec, tr *trace.Trace) trace.Source {
	path := filepath.Join(t.TempDir(), "t.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.FileSource(path)
}

func parseSpec(t *testing.T, s string) (workload.Spec, *trace.Trace) {
	t.Helper()
	spec, err := workload.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return spec, tr
}

// readsPerClient counts each client's reads in tr.
func readsPerClient(tr *trace.Trace) []uint64 {
	reads := make([]uint64, len(tr.Clients))
	for _, r := range tr.Reqs {
		if r.Op == trace.Read {
			reads[r.Client]++
		}
	}
	return reads
}

// checkAccounting requires exact per-client reads, names and totals from
// res, and agreement with the cache's own counters.
func checkAccounting(t *testing.T, tr *trace.Trace, res sim.Result, st core.Stats) {
	t.Helper()
	if res.Requests != uint64(tr.Len()) || res.Trace != tr.Name {
		t.Errorf("Requests=%d Trace=%q, want %d %q", res.Requests, res.Trace, tr.Len(), tr.Name)
	}
	want := readsPerClient(tr)
	if len(res.PerClient) != len(want) {
		t.Fatalf("PerClient has %d entries, want %d", len(res.PerClient), len(want))
	}
	var reads, hits uint64
	for c, cs := range res.PerClient {
		if cs.Name != tr.Clients[c] || cs.Reads != want[c] {
			t.Errorf("client %d: %q with %d reads, want %q with %d", c, cs.Name, cs.Reads, tr.Clients[c], want[c])
		}
		reads += cs.Reads
		hits += cs.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals %d/%d do not fold per-client %d/%d", res.ReadHits, res.Reads, hits, reads)
	}
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits || st.Requests != res.Requests {
		t.Errorf("cache counted %d/%d hits/reads over %d requests, replay %d/%d over %d",
			st.ReadHits, st.Reads, st.Requests, res.ReadHits, res.Reads, res.Requests)
	}
	if res.ReadHits == 0 {
		t.Error("no hits; test is vacuous")
	}
}

// TestReplayTargets runs the full target × source table for a single- and
// a three-client stream. Single-client hits must equal a serial replay of
// the same trace on an identical front; with several clients only
// order-free quantities are exact.
func TestReplayTargets(t *testing.T) {
	cfg := core.Config{Capacity: 2000, Window: 3000}
	const shards = 4
	for _, spec := range []string{"DB2_C60:12000", "DB2_C60*3:12000"} {
		spec, tr := parseSpec(t, spec)
		serial := sim.Run(core.NewSharded(cfg, shards), tr)
		for _, tg := range targets {
			for _, src := range sources {
				t.Run(spec.String()+"/"+tg.name+"/"+src.name, func(t *testing.T) {
					target, stats := tg.start(t, cfg, shards)
					res, err := engine.Replay(target, src.make(t, spec, tr), tg.opt)
					if err != nil {
						t.Fatal(err)
					}
					checkAccounting(t, tr, res, stats())
					if res.Policy != "CLIC/4" || res.CacheSize != cfg.Capacity {
						t.Errorf("labelled %s/%d, want CLIC/4/%d", res.Policy, res.CacheSize, cfg.Capacity)
					}
					if len(tr.Clients) == 1 && res.ReadHits != serial.ReadHits {
						t.Errorf("%d hits, serial replay %d", res.ReadHits, serial.ReadHits)
					}
				})
			}
		}
	}
}

// TestReplayMoreClientsThanShards is the -race stress for every target:
// six clients contend for two owner-engine shards at once.
func TestReplayMoreClientsThanShards(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 3000, Engine: core.EngineOwner}
	spec, tr := parseSpec(t, "DB2_C60*6:36000")
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			target, stats := tg.start(t, cfg, 2)
			res, err := engine.Replay(target, spec.Source(), engine.ReplayOptions{BatchSize: 128, Depth: tg.opt.Depth})
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, tr, res, stats())
		})
	}
}

// TestReplayResultShape pins the result rule every target shares: one
// PerClient entry per client the stream names, idle or not; client<i> for
// a client it leaves unnamed; and the same label even for an empty stream,
// where no session is ever opened.
func TestReplayResultShape(t *testing.T) {
	idle := trace.New("idle", 8192)
	idle.Clients = []string{"a", "b", "c"}
	h := idle.Dict.Intern(hint.Make("reqtype", "rand"))
	for i := 0; i < 2000; i++ {
		idle.Reqs = append(idle.Reqs, trace.Request{Page: uint64(i % 300), Hint: h, Client: uint8(i % 2)})
	}
	unnamed := trace.New("unnamed", 8192)
	unnamed.Clients = nil
	h = unnamed.Dict.Intern(hint.Make("reqtype", "rand"))
	for i := 0; i < 2000; i++ {
		unnamed.Reqs = append(unnamed.Reqs, trace.Request{Page: uint64(i % 300), Hint: h})
	}
	empty := trace.New("empty", 8192)
	empty.Clients = []string{"a"}

	cases := []struct {
		tr    *trace.Trace
		names []string
		reads []uint64
	}{
		{idle, []string{"a", "b", "c"}, []uint64{1000, 1000, 0}},
		{unnamed, []string{"client0"}, []uint64{2000}},
		{empty, []string{"a"}, []uint64{0}},
	}
	cfg := core.Config{Capacity: 500, Window: 1000}
	for _, tc := range cases {
		for _, tg := range targets {
			t.Run(tc.tr.Name+"/"+tg.name, func(t *testing.T) {
				target, _ := tg.start(t, cfg, 2)
				res, err := engine.Replay(target, tc.tr.Source(), tg.opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Policy != "CLIC/2" || res.CacheSize != cfg.Capacity {
					t.Errorf("labelled %q/%d, want CLIC/2/%d", res.Policy, res.CacheSize, cfg.Capacity)
				}
				if len(res.PerClient) != len(tc.names) {
					t.Fatalf("PerClient = %+v, want %d entries", res.PerClient, len(tc.names))
				}
				for c, cs := range res.PerClient {
					if cs.Name != tc.names[c] || cs.Reads != tc.reads[c] {
						t.Errorf("client %d: %q with %d reads, want %q with %d", c, cs.Name, cs.Reads, tc.names[c], tc.reads[c])
					}
				}
			})
		}
	}
}
