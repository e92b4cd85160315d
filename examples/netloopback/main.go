// Network loopback serving: the storage-server scenario of the paper run
// over a real TCP connection per client. Three database clients with
// different buffer sizes replay their workloads against one CLIC cache
// server in the same process — both through engine.Replay, first with its
// in-process target (shared memory, one goroutine per client), then with a
// netclient target against internal/server (the wire protocol, one
// connection per client).
//
// Per-client read counts are identical on both paths; aggregate hit ratios
// differ only through arrival order, which on both paths is whatever the
// scheduler produces.
//
//	go run ./examples/netloopback [-requests 200000] [-shards 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	requests := flag.Int("requests", 200000, "per-client trace length")
	shards := flag.Int("shards", 8, "server shard count")
	flag.Parse()

	names := []string{"DB2_C60", "DB2_C300", "DB2_C540"}
	traces := make([]*trace.Trace, len(names))
	for i, name := range names {
		p, err := workload.PresetByName(name)
		if err != nil {
			fail(err)
		}
		p.Requests = *requests
		fmt.Fprintf(os.Stderr, "generating %s...\n", name)
		traces[i], err = workload.Generate(p)
		if err != nil {
			fail(err)
		}
	}
	merged, err := trace.Interleave("THREE_CLIENTS", traces...)
	if err != nil {
		fail(err)
	}

	const shared = 18000
	cfg := core.Config{TopK: 100, Window: 50000, Capacity: sim.ClicCapacity(shared)}

	// In-process path: one goroutine per client against a sharded front.
	inproc, err := engine.Replay(engine.InProcess{Front: core.NewSharded(cfg, *shards)}, merged.Source(), engine.ReplayOptions{})
	if err != nil {
		fail(err)
	}

	// Network path: a real TCP server on loopback, one connection per
	// client, same cache configuration.
	srv := server.New(server.Config{Cache: cfg, Shards: *shards})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		fail(err)
	}
	defer srv.Close()
	netres, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), merged.Source(), engine.ReplayOptions{})
	if err != nil {
		fail(err)
	}

	tbl := report.NewTable(
		fmt.Sprintf("%d clients, one %s-page %s front — in-process vs loopback TCP",
			len(names), report.Num(shared), inproc.Policy),
		"client", "in-process hit ratio", "loopback hit ratio")
	for i := range netres.PerClient {
		tbl.AddRow(netres.PerClient[i].Name,
			report.Pct(inproc.PerClient[i].HitRatio()),
			report.Pct(netres.PerClient[i].HitRatio()))
	}
	tbl.AddRow("overall", report.Pct(inproc.HitRatio()), report.Pct(netres.HitRatio()))
	tbl.AddNote("both paths drive the same sharded CLIC configuration; they differ only in")
	tbl.AddNote("arrival order (scheduler for goroutines, TCP interleaving for connections)")
	if err := tbl.Render(os.Stdout); err != nil {
		fail(err)
	}

	st := srv.Cache().Stats()
	fmt.Printf("\nserver accounting: %s requests, %s read hits, outqueue %s, %d windows\n",
		report.Num(st.Requests), report.Num(st.ReadHits), report.Num(st.OutqueueLen), st.Windows)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "netloopback:", err)
	os.Exit(1)
}
