// Multi-client caching: three database clients with different buffer sizes
// share one storage-server cache, as in the paper's §6.4 / Figure 11. CLIC
// receives each client's hints (namespaced, uncoordinated) and learns which
// client's requests are the best caching opportunities.
//
// Beyond the paper's serial round-robin replay, the example also serves the
// three clients concurrently — one goroutine each — against a sharded CLIC
// front (core.Sharded), the configuration a real storage server under
// simultaneous load would run.
//
//	go run ./examples/multiclient [-requests 300000] [-shards 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	requests := flag.Int("requests", 300000, "per-client trace length")
	shards := flag.Int("shards", 8, "shards for the concurrent CLIC front")
	flag.Parse()
	if *shards < 1 {
		fail(fmt.Errorf("-shards must be at least 1, got %d", *shards))
	}

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
	fmt.Printf("interleaved trace: %s requests from %d clients, %d hint sets\n\n",
		report.Num(merged.Len()), len(merged.Clients), merged.Stats().DistinctHints)

	const shared = 18000
	partition := shared / len(names)
	mkClic := func(capacity int) func() policy.Policy {
		cfg := core.Config{TopK: 100, Window: 50000, Capacity: sim.ClicCapacity(capacity)}
		return func() policy.Policy { return core.New(cfg) }
	}

	// The serial shared-cache replay and the three private-cache runs are
	// four independent simulations; fan them across the cores.
	jobs := []engine.Job{{New: mkClic(shared), Trace: merged}}
	for _, t := range traces {
		jobs = append(jobs, engine.Job{New: mkClic(partition), Trace: t})
	}
	all := engine.Run(jobs, engine.Options{})
	sharedRes, private := all[0], all[1:]

	tbl := report.NewTable(
		fmt.Sprintf("CLIC with a %s-page shared cache vs %d × %s-page private caches",
			report.Num(shared), len(names), report.Num(partition)),
		"client", "shared cache hit ratio", "private cache hit ratio")
	var privReads, privHits uint64
	for i := range traces {
		privReads += private[i].Reads
		privHits += private[i].ReadHits
		tbl.AddRow(names[i],
			report.Pct(sharedRes.PerClient[i].HitRatio()),
			report.Pct(private[i].HitRatio()))
	}
	overallPriv := 0.0
	if privReads > 0 {
		overallPriv = float64(privHits) / float64(privReads)
	}
	tbl.AddRow("overall", report.Pct(sharedRes.HitRatio()), report.Pct(overallPriv))
	tbl.AddNote("CLIC concentrates the shared cache on the client with the most residual locality (§6.4)")
	if err := tbl.Render(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println()

	// Concurrent serving: the same merged workload, but each client drives
	// the server from its own goroutine against one sharded CLIC front.
	front := core.NewSharded(core.Config{TopK: 100, Window: 50000, Capacity: sim.ClicCapacity(shared)}, *shards)
	conc, err := engine.Replay(engine.InProcess{Front: front}, merged.Source(), engine.ReplayOptions{})
	if err != nil {
		fail(err)
	}
	ctbl := report.NewTable(
		fmt.Sprintf("concurrent serving — %d clients driving one %s-page %s front",
			len(names), report.Num(shared), front.Name()),
		"client", "read hit ratio")
	for _, cs := range conc.PerClient {
		ctbl.AddRow(cs.Name, report.Pct(cs.HitRatio()))
	}
	ctbl.AddRow("overall", report.Pct(conc.HitRatio()))
	ctbl.AddNote("hash-partitioned shards serve the clients in parallel")
	ctbl.AddNote("unlike the round-robin replay above, the arrival order here is whatever the scheduler")
	ctbl.AddNote("produces and CLIC adapts to that order — on few cores expect markedly different hit ratios")
	if err := ctbl.Render(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "multiclient:", err)
	os.Exit(1)
}
