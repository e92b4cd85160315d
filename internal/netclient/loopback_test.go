// Loopback integration tests: a real server and real clients in one
// process, talking TCP over 127.0.0.1, checked against engine.Replay's
// in-process target on the same trace and configuration.
package netclient_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/server"
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

// inProcess replays tr through engine.Replay's in-process target over
// front: the reference the network paths are checked against.
func inProcess(t *testing.T, front *core.Sharded, tr *trace.Trace) sim.Result {
	t.Helper()
	res, err := engine.Replay(engine.InProcess{Front: front}, tr.Source(), engine.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestLoopbackGoldenSingleClient is the golden equivalence test: with a
// single client both paths drive the cache with the same total request
// order, so the networked replay's aggregate hit/miss counts must equal
// the in-process replay's exactly — same trace, same configuration, bit
// for bit.
func TestLoopbackGoldenSingleClient(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	want := inProcess(t, core.NewSharded(cfg, shards), testTrace)

	srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), testTrace.Source(), engine.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("loopback %d/%d hits/reads, in-process %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.Requests != want.Requests {
		t.Errorf("Requests = %d, want %d", got.Requests, want.Requests)
	}
	if got.Policy != want.Policy {
		t.Errorf("Policy = %q, want %q", got.Policy, want.Policy)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; the loopback path is vacuous")
	}
	// The server's own accounting must agree with the client's.
	st := srv.Cache().Stats()
	if st.Reads != got.Reads || st.ReadHits != got.ReadHits {
		t.Errorf("server stats (%d, %d) disagree with client accounting (%d, %d)",
			st.Reads, st.ReadHits, got.Reads, got.ReadHits)
	}
	if st.Requests != got.Requests {
		t.Errorf("server Requests = %d, want %d", st.Requests, got.Requests)
	}
}

// TestLoopbackMultiClient replays an interleaved three-client trace over
// three concurrent connections. The interleaving at the server is
// scheduler-dependent (exactly as in process), so only order-free
// quantities are compared: per-client read counts, totals, and the
// server-side accounting.
func TestLoopbackMultiClient(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(8000)
		parts[i].Name = fmt.Sprintf("c%d", i)
	}
	merged, err := trace.Interleave("TRIPLE", parts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 3000, Window: 5000}
	want := inProcess(t, core.NewSharded(cfg, 4), merged)

	srv := startServer(t, server.Config{Cache: cfg, Shards: 4})
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), merged.Source(), engine.ReplayOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}

	if len(got.PerClient) != len(want.PerClient) {
		t.Fatalf("PerClient has %d entries, want %d", len(got.PerClient), len(want.PerClient))
	}
	for c := range got.PerClient {
		if got.PerClient[c].Name != want.PerClient[c].Name {
			t.Errorf("client %d name %q, want %q", c, got.PerClient[c].Name, want.PerClient[c].Name)
		}
		// Read counts depend only on the trace, not the interleaving.
		if got.PerClient[c].Reads != want.PerClient[c].Reads {
			t.Errorf("client %d Reads = %d, want %d", c, got.PerClient[c].Reads, want.PerClient[c].Reads)
		}
	}
	if got.Reads != want.Reads {
		t.Errorf("Reads = %d, want %d", got.Reads, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all")
	}
	st := srv.Cache().Stats()
	if st.ReadHits != got.ReadHits || st.Reads != got.Reads {
		t.Errorf("server stats (%d/%d) disagree with client accounting (%d/%d)",
			st.ReadHits, st.Reads, got.ReadHits, got.Reads)
	}
	snap := srv.Snapshot(10)
	var snapReads, snapHits uint64
	for _, cs := range snap.Clients {
		snapReads += cs.Reads
		snapHits += cs.ReadHits
	}
	if snapReads != got.Reads || snapHits != got.ReadHits {
		t.Errorf("snapshot per-client sums (%d/%d) disagree with client accounting (%d/%d)",
			snapHits, snapReads, got.ReadHits, got.Reads)
	}
}

// TestLoopbackReplayFileBinary streams a binary trace file over the wire
// and checks it against the in-memory replay of the same requests on an
// identically configured server.
func TestLoopbackReplayFileBinary(t *testing.T) {
	tr := testTrace.Truncate(12000)
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := trace.Save(path, tr); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 2000, Window: 4000}

	srv := startServer(t, server.Config{Cache: cfg, Shards: 4})
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), trace.FileSource(path), engine.ReplayOptions{BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	// Single client: the file replay is sequential, so it must match the
	// in-memory sequential replay exactly.
	want := inProcess(t, core.NewSharded(cfg, 4), tr)
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("file replay %d/%d, in-memory %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.Requests != uint64(tr.Len()) {
		t.Errorf("Requests = %d, want %d", got.Requests, tr.Len())
	}
}

// TestLoopbackReplayFileText streams a text trace, whose hint dictionary is
// discovered mid-scan — exercising the Intern (mid-stream announcement)
// protocol path end to end. Hint-set identity, not ID numbering, is what
// the cache keys on, so the sequential text replay must still match the
// in-memory path exactly.
func TestLoopbackReplayFileText(t *testing.T) {
	tr := testTrace.Truncate(5000)
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
	cfg := core.Config{Capacity: 1500, Window: 2000}

	srv := startServer(t, server.Config{Cache: cfg, Shards: 4})
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), trace.FileSource(path), engine.ReplayOptions{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, core.NewSharded(cfg, 4), tr)
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("text replay %d/%d, in-memory %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all")
	}
}

// TestLoopbackLimit checks ReplayOptions.Limit.
func TestLoopbackLimit(t *testing.T) {
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 500, Window: 1000}, Shards: 2})
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), testTrace.Source(), engine.ReplayOptions{Limit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != 2500 {
		t.Errorf("Requests = %d, want 2500", got.Requests)
	}
	if st := srv.Cache().Stats(); st.Requests != 2500 {
		t.Errorf("server processed %d requests, want 2500", st.Requests)
	}
}

// TestAdminStats exercises the admin HTTP endpoint end to end.
func TestAdminStats(t *testing.T) {
	cfg := core.Config{Capacity: 1000, Window: 2000}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2})
	if err := srv.ListenAdmin("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), testTrace.Truncate(8000).Source(), engine.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Core.Requests != 8000 {
		t.Errorf("admin Requests = %d, want 8000", snap.Core.Requests)
	}
	if snap.Core.ReadHits == 0 {
		t.Error("admin reports no hits")
	}
	if snap.Policy != "CLIC/2" {
		t.Errorf("admin Policy = %q, want CLIC/2", snap.Policy)
	}
	if len(snap.Clients) != 1 || snap.Clients[0].Name != testTrace.Name {
		t.Errorf("admin Clients = %+v, want one entry named %q", snap.Clients, testTrace.Name)
	}
	if len(snap.WindowStats) == 0 || len(snap.WindowStats) > 5 {
		t.Errorf("admin WindowStats has %d entries, want 1..5", len(snap.WindowStats))
	}
	if _, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=bogus"); err != nil {
		t.Fatal(err)
	}
}

// TestHintVocabularyLimit checks that the server refuses connections that
// would grow the shared dictionary past the configured bound, at both the
// Hello and the Intern stage.
func TestHintVocabularyLimit(t *testing.T) {
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2, MaxHintKeys: 4})
	conn, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("greedy", []string{"a=1", "a=2", "a=3", "a=4", "a=5"}); err == nil {
		t.Error("server accepted a Hello above the hint-vocabulary limit")
	}

	conn2, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Hello("ok", []string{"a=1", "a=2", "a=3"}); err != nil {
		t.Fatal(err)
	}
	if err := conn2.Announce([]string{"a=4", "a=5"}); err != nil {
		t.Fatal(err) // announce is buffered; the error surfaces on Do
	}
	if _, err := conn2.Do([]trace.Request{{Page: 1}}); err == nil {
		t.Error("server accepted an Intern above the hint-vocabulary limit")
	}
}

// TestHelloVersionMismatch checks that the server rejects unknown protocol
// versions with a readable error.
func TestHelloVersionMismatch(t *testing.T) {
	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	conn, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dial+Hello always sends wire.Version; talk to the server raw to
	// simulate a future client. Easiest here: the server must also reject
	// a Batch before Hello.
	if _, err := conn.Do([]trace.Request{{Page: 1}}); err == nil {
		t.Error("server accepted a batch before Hello")
	}
}

// TestLoopbackGlobalLearner runs the whole network stack on a server whose
// shards share the global lock-striped learner: three concurrent client
// connections against two shards, so connection handlers contend for shard
// mutexes and learner stripes at once — the TCP-path stress test for
// global learning (run under -race in CI). Order-free quantities are
// checked against the in-process replay, and the admin snapshot must
// report the mode.
func TestLoopbackGlobalLearner(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(8000)
		parts[i].Name = fmt.Sprintf("g%d", i)
	}
	merged, err := trace.Interleave("TRIPLE_GLOBAL", parts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 3000, Window: 5000, Stats: core.StatsGlobal}
	want := inProcess(t, core.NewSharded(cfg, 2), merged)

	srv := startServer(t, server.Config{Cache: cfg, Shards: 2})
	if err := srv.ListenAdmin("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), merged.Source(), engine.ReplayOptions{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for c := range got.PerClient {
		if got.PerClient[c].Reads != want.PerClient[c].Reads {
			t.Errorf("client %d Reads = %d, want %d", c, got.PerClient[c].Reads, want.PerClient[c].Reads)
		}
	}
	if got.Reads != want.Reads {
		t.Errorf("Reads = %d, want %d", got.Reads, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all")
	}
	st := srv.Cache().Stats()
	if st.ReadHits != got.ReadHits || st.Reads != got.Reads {
		t.Errorf("server stats (%d/%d) disagree with client accounting (%d/%d)",
			st.ReadHits, st.Reads, got.ReadHits, got.Reads)
	}
	if st.Learner != "global" {
		t.Errorf("server Stats.Learner = %q, want global", st.Learner)
	}
	if want := merged.Len() / 5000; st.Windows != want {
		t.Errorf("Windows = %d, want exactly %d (shared learner)", st.Windows, want)
	}

	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/stats?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Core.Learner != "global" {
		t.Errorf("admin snapshot learner = %q, want global", snap.Core.Learner)
	}
	if snap.Core.Requests != uint64(merged.Len()) {
		t.Errorf("admin Requests = %d, want %d", snap.Core.Requests, merged.Len())
	}
}

// TestLoopbackGoldenGlobalSingleShard: a 1-shard global-learner server
// replayed by a single client must match the plain in-process cache
// exactly — the partitioned-vs-global equivalence carried through the
// whole TCP stack.
func TestLoopbackGoldenGlobalSingleShard(t *testing.T) {
	tr := testTrace.Truncate(12000)
	cfg := core.Config{Capacity: 2000, Window: 4000, Stats: core.StatsGlobal}
	want := inProcess(t, core.NewSharded(cfg, 1), tr)

	srv := startServer(t, server.Config{Cache: cfg, Shards: 1})
	got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), tr.Source(), engine.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("loopback %d/%d hits/reads, in-process %d/%d", got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; the loopback path is vacuous")
	}
}

// TestLoopbackOwnerGolden is the TCP-layer equivalence test for the
// single-owner engine: the same single-client replay against two servers
// that differ only in Config.Engine must produce bit-identical hit counts
// — the wire path, connection handler and batch fan-out preserve exact
// per-request semantics in both engine modes.
func TestLoopbackOwnerGolden(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4

	mutexSrv := startServer(t, server.Config{Cache: cfg, Shards: shards})
	want, err := engine.Replay(netclient.NewTarget(mutexSrv.Addr().String()), testTrace.Source(), engine.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ocfg := cfg
	ocfg.Engine = core.EngineOwner
	ownerSrv := startServer(t, server.Config{Cache: ocfg, Shards: shards})
	got, err := engine.Replay(netclient.NewTarget(ownerSrv.Addr().String()), testTrace.Source(), engine.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
		t.Errorf("owner server %d/%d hits/reads, mutex server %d/%d",
			got.ReadHits, got.Reads, want.ReadHits, want.Reads)
	}
	if got.ReadHits == 0 {
		t.Error("no hits at all; test is vacuous")
	}
	os, ms := ownerSrv.Cache().Stats(), mutexSrv.Cache().Stats()
	if os.Engine != "owner" || ms.Engine != "mutex" {
		t.Fatalf("engines reported as %q and %q", os.Engine, ms.Engine)
	}
	ms.Engine = os.Engine
	if os != ms {
		t.Errorf("server Stats drift:\nowner %+v\nmutex %+v", os, ms)
	}
}

// TestLoopbackOwnerMultiClient replays three concurrent clients against an
// owner-engine server — the TCP-layer stress for concurrent producers.
// Per-client read counts are exact and the server accounting must agree
// with the clients'.
func TestLoopbackOwnerMultiClient(t *testing.T) {
	parts := make([]*trace.Trace, 3)
	for i := range parts {
		parts[i] = testTrace.Truncate(8000)
		parts[i].Name = string(rune('A' + i))
	}
	merged, err := trace.Interleave("THREE", parts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 3000, Window: 5000, Engine: core.EngineOwner}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2})
	res, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), merged.Source(), engine.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var reads, hits uint64
	for _, cs := range res.PerClient {
		reads += cs.Reads
		hits += cs.ReadHits
	}
	if res.Reads != reads || res.ReadHits != hits {
		t.Errorf("totals (%d, %d) disagree with per-client sums (%d, %d)", res.Reads, res.ReadHits, reads, hits)
	}
	if res.ReadHits == 0 {
		t.Error("no hits at all")
	}
	st := srv.Cache().Stats()
	if st.Reads != res.Reads || st.ReadHits != res.ReadHits {
		t.Errorf("server stats (%d, %d) disagree with client accounting (%d, %d)",
			st.Reads, st.ReadHits, res.Reads, res.ReadHits)
	}
	if st.Requests != uint64(merged.Len()) {
		t.Errorf("server Requests = %d, want %d", st.Requests, merged.Len())
	}
}
