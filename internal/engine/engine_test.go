package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testTrace generates a small seeded TPC-C trace once per test binary.
var testTrace = func() *trace.Trace {
	p, err := workload.PresetByName("DB2_C60")
	if err != nil {
		panic(err)
	}
	p.Requests = 30000
	t, err := workload.Generate(p)
	if err != nil {
		panic(err)
	}
	return t
}()

var testSizes = []int{500, 1000, 2000, 4000}

// serve replays tr through the in-process target over front.
func serve(t *testing.T, front *core.Sharded, tr *trace.Trace) sim.Result {
	t.Helper()
	res, err := Replay(InProcess{Front: front}, tr.Source(), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSweepMatchesSerial is the determinism golden test: the parallel
// sweep's []sim.Result must be byte-identical (under a canonical encoding)
// to the serial sim.Sweep output, for every policy and any worker count.
func TestSweepMatchesSerial(t *testing.T) {
	clicCfg := core.Config{Window: 5000}
	for _, pol := range sim.PolicyNames {
		mk := sim.Constructor(pol, testTrace, clicCfg)
		want, err := json.Marshal(sim.Sweep(mk, testTrace, testSizes))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3, 16} {
			got, err := json.Marshal(Sweep(mk, testTrace, testSizes, Options{Workers: workers}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s (workers=%d): parallel sweep differs from serial sim.Sweep\n got: %s\nwant: %s",
					pol, workers, got, want)
			}
		}
	}
}

// TestGrid checks grouping, ordering, and name validation.
func TestGrid(t *testing.T) {
	policies := []string{"LRU", "CLIC", "FIFO"}
	res, err := Grid(policies, testSizes, testTrace, core.Config{Window: 5000}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(policies) {
		t.Fatalf("got %d policies, want %d", len(res), len(policies))
	}
	for _, pol := range policies {
		sweep := res[pol]
		if len(sweep) != len(testSizes) {
			t.Fatalf("%s: got %d results, want %d", pol, len(sweep), len(testSizes))
		}
		for i, r := range sweep {
			want := testSizes[i]
			if pol == "CLIC" {
				want = sim.ClicCapacity(want) // CLIC pays its tracking overhead in pages
			}
			if r.CacheSize != want {
				t.Errorf("%s[%d]: CacheSize = %d, want %d (order not preserved)", pol, i, r.CacheSize, want)
			}
			if r.Requests != uint64(testTrace.Len()) {
				t.Errorf("%s[%d]: Requests = %d, want %d", pol, i, r.Requests, testTrace.Len())
			}
		}
	}
	if _, err := Grid([]string{"LRU", "NOPE"}, testSizes, testTrace, core.Config{}, Options{}); err == nil {
		t.Error("Grid accepted an unknown policy name")
	}
}

// TestRunProgress checks the progress callback: serialized, monotone done
// counts reaching the total exactly once each.
func TestRunProgress(t *testing.T) {
	jobs := make([]Job, 9)
	for i := range jobs {
		jobs[i] = Job{New: func() policy.Policy { return core.New(core.Config{Capacity: 100}) }, Trace: testTrace}
	}
	seen := make(map[int]bool)
	last := 0
	res := Run(jobs, Options{Workers: 4, Progress: func(done, total int, r sim.Result) {
		if total != len(jobs) {
			t.Errorf("total = %d, want %d", total, len(jobs))
		}
		if done != last+1 {
			t.Errorf("done jumped from %d to %d", last, done)
		}
		last = done
		if seen[done] {
			t.Errorf("done=%d reported twice", done)
		}
		seen[done] = true
		if r.Policy == "" {
			t.Error("progress result missing policy name")
		}
	}})
	if last != len(jobs) || len(res) != len(jobs) {
		t.Errorf("completed %d of %d jobs, %d results", last, len(jobs), len(res))
	}
}

// TestRunEmpty ensures a zero-job run is a no-op, not a hang.
func TestRunEmpty(t *testing.T) {
	if got := Run(nil, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) returned %d results", len(got))
	}
}

// TestServeClients drives a sharded CLIC front with concurrent clients and
// checks the merged accounting: per-client read counts are exact (they
// depend only on the trace) and the totals are consistent.
func TestServeClients(t *testing.T) {
	a := testTrace.Truncate(10000)
	a.Name = "A"
	b := testTrace.Truncate(10000)
	b.Name = "B"
	merged, err := trace.Interleave("AB", a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, 4)
	res := serve(t, s, merged)

	if res.Requests != uint64(merged.Len()) {
		t.Errorf("Requests = %d, want %d", res.Requests, merged.Len())
	}
	if len(res.PerClient) != 2 {
		t.Fatalf("PerClient has %d entries, want 2", len(res.PerClient))
	}
	// Both clients replay the same requests, so their read counts agree and
	// sum to the total.
	if res.PerClient[0].Reads != res.PerClient[1].Reads {
		t.Errorf("client read counts differ: %d vs %d", res.PerClient[0].Reads, res.PerClient[1].Reads)
	}
	if res.Reads != res.PerClient[0].Reads+res.PerClient[1].Reads {
		t.Errorf("Reads = %d, want sum of per-client %d", res.Reads, res.PerClient[0].Reads+res.PerClient[1].Reads)
	}
	if res.ReadHits != res.PerClient[0].ReadHits+res.PerClient[1].ReadHits {
		t.Errorf("ReadHits = %d, inconsistent with per-client sum", res.ReadHits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	if res.Policy != "CLIC/4" {
		t.Errorf("Policy = %q, want CLIC/4", res.Policy)
	}
}

// TestServeClientsMoreClientsThanShards drives a 2-shard front from 6
// clients, so several client goroutines contend for each shard mutex; under
// -race (the CI configuration) this exercises the locking in the regime the
// network server runs in. Per-client read counts must match a serial replay
// of each client's subsequence exactly.
func TestServeClientsMoreClientsThanShards(t *testing.T) {
	parts := make([]*trace.Trace, 6)
	for i := range parts {
		parts[i] = testTrace.Truncate(6000)
		parts[i].Name = string(rune('A' + i))
	}
	merged, err := trace.Interleave("SIX", parts...)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 3000}, 2)
	res := serve(t, s, merged)

	if len(res.PerClient) != 6 {
		t.Fatalf("PerClient has %d entries, want 6", len(res.PerClient))
	}
	var reads, hits uint64
	for c, st := range res.PerClient {
		wantReads := uint64(0)
		for _, r := range merged.Reqs {
			if int(r.Client) == c && r.Op == trace.Read {
				wantReads++
			}
		}
		if st.Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, st.Reads, wantReads)
		}
		reads += st.Reads
		hits += st.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	// The Stats snapshot must agree with the per-client accounting.
	st := s.Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("Stats (%d reads, %d hits) disagree with result (%d, %d)", st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Requests != uint64(merged.Len()) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, merged.Len())
	}
}

// TestPartitionedGoldenPreRefactor pins CLIC's hit counts on the seeded
// test trace to the values measured before the statistics machinery moved
// out of core.Cache into internal/clicstats: the Partitioned learner must
// reproduce the pre-refactor behavior bit for bit, for plain and sharded
// caches, in exact, top-k and decaying configurations.
func TestPartitionedGoldenPreRefactor(t *testing.T) {
	cases := []struct {
		name   string
		cfg    core.Config
		shards int // 0 = plain Cache
		hits   uint64
	}{
		{"plain/exact", core.Config{Capacity: 2970, Window: 5000}, 0, 3718},
		{"plain/topk", core.Config{Capacity: 2970, Window: 5000, TopK: 20}, 0, 3718},
		{"plain/decay", core.Config{Capacity: 2970, Window: 5000, R: 0.5}, 0, 3718},
		{"sharded2/exact", core.Config{Capacity: 2970, Window: 5000}, 2, 3715},
		{"sharded2/topk", core.Config{Capacity: 2970, Window: 5000, TopK: 20}, 2, 3715},
		{"sharded2/decay", core.Config{Capacity: 2970, Window: 5000, R: 0.5}, 2, 3704},
		{"sharded4/exact", core.Config{Capacity: 2970, Window: 5000}, 4, 3618},
		{"sharded4/topk", core.Config{Capacity: 2970, Window: 5000, TopK: 20}, 4, 3618},
		{"sharded4/decay", core.Config{Capacity: 2970, Window: 5000, R: 0.5}, 4, 3644},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p policy.Policy
			if tc.shards == 0 {
				p = core.New(tc.cfg)
			} else {
				p = core.NewSharded(tc.cfg, tc.shards)
			}
			res := sim.Run(p, testTrace)
			if res.Reads != 20973 {
				t.Fatalf("Reads = %d, want 20973 (trace generation changed?)", res.Reads)
			}
			if res.ReadHits != tc.hits {
				t.Errorf("ReadHits = %d, want pre-refactor golden %d", res.ReadHits, tc.hits)
			}
		})
	}
}

// TestServeClientsGlobalSingleClient: with one client an in-process replay
// is sequential, so the global and partitioned 1-shard fronts must match
// the plain serial simulation exactly — the engine-path equivalence test
// for the learner modes.
func TestServeClientsGlobalSingleClient(t *testing.T) {
	tr := testTrace.Truncate(15000)
	cfg := core.Config{Capacity: 2000, Window: 2000}
	want := sim.Run(core.New(cfg), tr)
	for _, mode := range []core.StatsMode{core.StatsPartitioned, core.StatsGlobal} {
		mcfg := cfg
		mcfg.Stats = mode
		got := serve(t, core.NewSharded(mcfg, 1), tr)
		if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
			t.Errorf("%v: replay %d/%d hits/reads, serial %d/%d",
				mode, got.ReadHits, got.Reads, want.ReadHits, want.Reads)
		}
		if got.ReadHits == 0 {
			t.Errorf("%v: no hits; test is vacuous", mode)
		}
	}
}

// TestServeClientsGlobalMoreClientsThanShards drives a 2-shard front with
// the shared global learner from 6 clients: client goroutines contend for
// both the shard mutexes and the learner's stripe locks, and rotations by
// one shard must propagate to the others' victim heaps. Under -race (the
// CI configuration) this is the engine-path stress test for global
// learning.
func TestServeClientsGlobalMoreClientsThanShards(t *testing.T) {
	parts := make([]*trace.Trace, 6)
	for i := range parts {
		parts[i] = testTrace.Truncate(6000)
		parts[i].Name = string(rune('A' + i))
	}
	merged, err := trace.Interleave("SIXG", parts...)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 3000, Stats: core.StatsGlobal}, 2)
	res := serve(t, s, merged)

	if len(res.PerClient) != 6 {
		t.Fatalf("PerClient has %d entries, want 6", len(res.PerClient))
	}
	var reads, hits uint64
	for c, st := range res.PerClient {
		wantReads := uint64(0)
		for _, r := range merged.Reqs {
			if int(r.Client) == c && r.Op == trace.Read {
				wantReads++
			}
		}
		if st.Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, st.Reads, wantReads)
		}
		reads += st.Reads
		hits += st.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	st := s.Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("Stats (%d reads, %d hits) disagree with result (%d, %d)", st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Learner != "global" {
		t.Errorf("Stats.Learner = %q, want global", st.Learner)
	}
	if want := merged.Len() / 3000; st.Windows != want {
		t.Errorf("Windows = %d, want exactly %d (shared learner rotates cache-wide)", st.Windows, want)
	}
}

// TestServeClientsOwnerSingleClient is the engine-layer equivalence golden
// test for the single-owner engine: with one client an in-process replay
// is a serial batch replay through one producer, which in
// partitioned-statistics mode is bit-identical to the mutex engine's
// per-request replay — same reads, same hits, same structural state.
func TestServeClientsOwnerSingleClient(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	mutex := core.NewSharded(cfg, shards)
	want := serve(t, mutex, testTrace)

	ocfg := cfg
	ocfg.Engine = core.EngineOwner
	owner := core.NewSharded(ocfg, shards)
	defer owner.Close()
	got := serve(t, owner, testTrace)

	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("owner %d/%d hits/reads, mutex %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; test is vacuous")
	}
	if owner.Len() != mutex.Len() || owner.OutqueueLen() != mutex.OutqueueLen() {
		t.Errorf("structural drift: Len %d/%d, Outqueue %d/%d",
			owner.Len(), mutex.Len(), owner.OutqueueLen(), mutex.OutqueueLen())
	}
	os, ms := owner.Stats(), mutex.Stats()
	ms.Engine = os.Engine // the one field allowed to differ
	if os != ms {
		t.Errorf("Stats drift:\nowner %+v\nmutex %+v", os, ms)
	}
}

// TestServeClientsOwnerMoreClientsThanShards drives a 2-shard owner-engine
// front from 6 concurrent producers — the engine-layer -race stress for
// the SPSC rings and doorbells. Per-client read counts are exact; hit
// counts depend on interleaving but the accounting must balance.
func TestServeClientsOwnerMoreClientsThanShards(t *testing.T) {
	parts := make([]*trace.Trace, 6)
	for i := range parts {
		parts[i] = testTrace.Truncate(6000)
		parts[i].Name = string(rune('A' + i))
	}
	merged, err := trace.Interleave("SIX", parts...)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 3000, Window: 3000, Engine: core.EngineOwner}, 2)
	defer s.Close()
	res := serve(t, s, merged)

	var reads, hits uint64
	for c, st := range res.PerClient {
		wantReads := uint64(0)
		for _, r := range merged.Reqs {
			if int(r.Client) == c && r.Op == trace.Read {
				wantReads++
			}
		}
		if st.Reads != wantReads {
			t.Errorf("client %d Reads = %d, want %d", c, st.Reads, wantReads)
		}
		reads += st.Reads
		hits += st.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all; cache is not being exercised")
	}
	st := s.Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("Stats (%d reads, %d hits) disagree with result (%d, %d)", st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Requests != uint64(merged.Len()) {
		t.Errorf("Stats.Requests = %d, want %d", st.Requests, merged.Len())
	}
	if st.Engine != "owner" {
		t.Errorf("Stats.Engine = %q, want owner", st.Engine)
	}
}

// TestServeSourceGenerator drives the cache straight from a live workload
// generator — the trace never exists in RAM or on disk.
func TestServeSourceGenerator(t *testing.T) {
	spec, err := workload.ParseSpec("DB2_C60*3:18000")
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSharded(core.Config{Capacity: 2000, Window: 2000}, 4)
	res, err := Replay(InProcess{Front: s}, spec.Source(), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 18000 {
		t.Errorf("Requests = %d, want 18000", res.Requests)
	}
	if len(res.PerClient) != 3 {
		t.Fatalf("PerClient has %d entries, want 3", len(res.PerClient))
	}
	for c, st := range res.PerClient {
		if st.Name != spec.ClientNames()[c] {
			t.Errorf("client %d named %q, want %q", c, st.Name, spec.ClientNames()[c])
		}
		if st.Reads == 0 {
			t.Errorf("client %d issued no reads", c)
		}
	}
	if res.ReadHits == 0 {
		t.Error("no hits; test is vacuous")
	}
}
