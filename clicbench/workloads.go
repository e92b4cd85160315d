package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef declares one benchmark workload as data: the generated
// stream, the cache it runs against, and the gate's tolerance. Every
// client is pipelined at netclient.DefaultDepth with adaptive batch
// sizes, as clicsim -connect drives a server. METRICS.md records why each
// workload was chosen.
type workloadDef struct {
	name string
	why  string

	preset   string // workload preset of every client
	clients  int    // concurrent clients, one connection (or router) each
	requests int    // requests per pass, all clients together

	cache  int // cluster-wide pages, before sim.ClicCapacity
	shards int // shards per node
	nodes  int // 0: one loopback server; otherwise a merging cluster

	// hitTolPts is how far a pass's read hit ratio may sit from the serial
	// reference replay of the same stream, in percentage points.
	hitTolPts float64
}

// CLIC settings shared by every workload.
const (
	clicTopK   = 100
	clicWindow = 50000
)

var workloads = []workloadDef{
	{
		name:      "tpcc-stream",
		why:       "2 TPC-C clients replayed from a v2 file over one pipelined loopback server; the per-request path and eviction dominate",
		preset:    "DB2_C60",
		clients:   2,
		requests:  3_000_000,
		cache:     18000,
		shards:    8,
		hitTolPts: 1.5,
	},
	{
		name:      "tpch-cluster",
		why:       "1 read-mostly TPC-H client routed over a 2-node merging cluster; the only workload using router fan-out and summary exchange",
		preset:    "DB2_H400",
		clients:   1,
		requests:  6_000_000,
		cache:     18000,
		shards:    4,
		nodes:     2,
		hitTolPts: 3.0,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// spec is the workload's generator spec for one seed.
func (w *workloadDef) spec(seed int64) (workload.Spec, error) {
	return workload.ParseSpec(fmt.Sprintf("%s*%d:%d@%d", w.preset, w.clients, w.requests, seed))
}

// cacheConfig is the CLIC configuration every server of the workload is
// built from (cluster-wide for a cluster: the harness splits it).
func (w *workloadDef) cacheConfig() core.Config {
	return core.Config{
		Capacity: sim.ClicCapacity(w.cache),
		Window:   clicWindow,
		TopK:     clicTopK,
		Engine:   core.EngineOwner,
	}
}

// harnessConfig is the merging cluster a clustered workload boots: the
// cluster-wide cache split over w.nodes nodes of w.shards shards each.
func (w *workloadDef) harnessConfig() cluster.HarnessConfig {
	return cluster.HarnessConfig{
		Nodes:   w.nodes,
		Cache:   w.cacheConfig(),
		Shards:  w.shards,
		Merging: true,
	}
}
