package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/trace"
)

// reference is the serial replay of a pass's stream: what the stream
// holds per client and the hit ratio one driver gets from the same
// cache configuration.
type reference struct {
	requests, reads, hits []uint64
}

func (r *reference) hitPct() float64 {
	var reads, hits uint64
	for i := range r.reads {
		reads += r.reads[i]
		hits += r.hits[i]
	}
	return 100 * ratio(float64(hits), float64(reads))
}

// referenceBatch is how many requests the serial reference hands its
// cache at a time, about the mean adaptive batch of a live replay.
const referenceBatch = 512

// referenceCache serves the serial reference replay in stream order.
type referenceCache interface {
	// access serves one batch; dict is the stream's hint table so far.
	// The returned hit flags are valid until the next call.
	access(reqs []trace.Request, dict *hint.Dict) ([]bool, error)
	close()
}

// nodeReference is one node of the served configuration driven by one
// goroutine: sim.Run's accounting. It uses the mutex engine, which gives
// bit-identical results to the owner engine for a single request stream
// and needs no shard goroutines.
type nodeReference struct {
	front *core.Sharded
	hits  []bool
}

func (n *nodeReference) access(reqs []trace.Request, _ *hint.Dict) ([]bool, error) {
	n.hits = n.hits[:0]
	for _, r := range reqs {
		n.hits = append(n.hits, n.front.Access(r))
	}
	return n.hits, nil
}

func (n *nodeReference) close() { n.front.Close() }

// clusterReference is a second merging cluster of the served
// configuration, driven the way cluster.Harness.ReplaySerial drives one:
// one router, one batch at a time in stream order, every pending window
// summary delivered between batches. Its nodes use the mutex engine, so
// each serves its sub-batches request by request in stream order and the
// replay is deterministic; the owner engine's shards would update a
// node's shared learner in whatever order they ran. It differs from a
// live replay only in timing — how batches interleave and how long a
// summary waits — so the gate's tolerance measures that, not the cost of
// splitting the cache over hash-placed nodes, which depends on the seed.
type clusterReference struct {
	h      *cluster.Harness
	router *cluster.Router
}

func newClusterReference(w *workloadDef) (*clusterReference, error) {
	cfg := w.harnessConfig()
	cfg.Cache.Engine = core.EngineMutex
	h, err := cluster.StartHarness(cfg)
	if err != nil {
		return nil, err
	}
	r, err := cluster.DialRouter(h.Nodes(), 0)
	if err != nil {
		h.Close()
		return nil, err
	}
	if err := r.Hello("reference", nil); err != nil {
		r.Close()
		h.Close()
		return nil, err
	}
	return &clusterReference{h: h, router: r}, nil
}

func (c *clusterReference) access(reqs []trace.Request, dict *hint.Dict) ([]bool, error) {
	if from := c.router.Announced(); from < dict.Len() {
		keys := make([]string, 0, dict.Len()-from)
		for id := from; id < dict.Len(); id++ {
			keys = append(keys, dict.Key(hint.ID(id)))
		}
		if err := c.router.Announce(keys); err != nil {
			return nil, err
		}
	}
	hits, _, err := c.router.Do(reqs)
	c.h.Exchange()
	return hits, err
}

func (c *clusterReference) close() {
	c.router.Close()
	c.h.Close()
}

// newReferenceCache builds the workload's reference: a single node for a
// one-server workload, a serially driven cluster for a clustered one.
func newReferenceCache(w *workloadDef) (referenceCache, error) {
	if w.nodes > 0 {
		return newClusterReference(w)
	}
	cfg := w.cacheConfig()
	cfg.Engine = core.EngineMutex
	return &nodeReference{front: core.NewSharded(cfg, w.shards)}, nil
}

// serialReference replays the stream file through the workload's
// reference cache, streamed, so no trace is held in memory.
func serialReference(w *workloadDef, path string) (*reference, error) {
	sc, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	n := len(sc.Clients())
	ref := &reference{requests: make([]uint64, n), reads: make([]uint64, n), hits: make([]uint64, n)}
	cache, err := newReferenceCache(w)
	if err != nil {
		return nil, err
	}
	defer cache.close()
	batch := make([]trace.Request, 0, referenceBatch)
	flush := func() error {
		hits, err := cache.access(batch, sc.HintDict())
		if err != nil {
			return err
		}
		for i, r := range batch {
			if r.Op == trace.Read {
				ref.reads[r.Client]++
				if hits[i] {
					ref.hits[r.Client]++
				}
			}
		}
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		r := sc.Request()
		if int(r.Client) >= n {
			return nil, fmt.Errorf("request names client %d, stream declares %d", r.Client, n)
		}
		ref.requests[r.Client]++
		if batch = append(batch, r); len(batch) == referenceBatch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return ref, nil
}
