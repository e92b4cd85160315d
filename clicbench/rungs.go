package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// rung is one step of the in-process ladder: the same stream driven
// through one more layer than the rung below it. Each run starts from a
// fresh cache and returns the time spent serving the whole stream.
type rung struct {
	name  string // metric prefix: <name>_ns_per_req, <name>_cost_ns_per_req
	below string // the rung this one adds a layer to ("" for the base)
	run   func(w *workloadDef, t *trace.Trace) (time.Duration, error)
}

var rungs = []rung{
	{name: "core.access", run: rungAccess},
	{name: "core.owner", below: "core.access", run: rungOwner},
	{name: "wire.codec", below: "core.owner", run: rungCodec},
}

// rungRepeats is how many times each rung runs; the median counts. The
// rungs take turns, so a slow spell of the host touches them all alike.
const rungRepeats = 5

// rungAccess is serial core.Cache.Access over the stream, one cache holding
// the workload's whole capacity.
func rungAccess(w *workloadDef, t *trace.Trace) (time.Duration, error) {
	c := core.New(w.cacheConfig())
	start := time.Now()
	for _, r := range t.Reqs {
		c.Access(r)
	}
	return time.Since(start), nil
}

// rungOwner is the owner-engine front driven in-process by one producer,
// in batches of wire.DefaultBatch requests.
func rungOwner(w *workloadDef, t *trace.Trace) (time.Duration, error) {
	s := core.NewSharded(w.cacheConfig(), w.shards)
	defer s.Close()
	p := s.NewProducer()
	defer p.Close()
	n := wire.DefaultBatch
	hits := make([]bool, n)
	start := time.Now()
	for reqs := t.Reqs; len(reqs) > 0; {
		k := min(n, len(reqs))
		p.AccessBatch(reqs[:k], hits)
		reqs = reqs[k:]
	}
	return time.Since(start), nil
}

// rungCodec adds the wire codec to the owner rung: every batch is encoded
// as a BatchSeq frame, decoded straight into the producer as the server
// does, and its results go through a ResultsSeq encode and decode.
func rungCodec(w *workloadDef, t *trace.Trace) (time.Duration, error) {
	s := core.NewSharded(w.cacheConfig(), w.shards)
	defer s.Close()
	p := s.NewProducer()
	defer p.Close()
	n := wire.DefaultBatch
	hits := make([]bool, n)
	var (
		enc, out []byte
		res      wire.Results
	)
	begin := func(k int) error {
		p.Begin(hits[:k])
		return nil
	}
	emit := func(_ int, r trace.Request) error {
		p.Add(r)
		return nil
	}
	start := time.Now()
	seq := uint64(0)
	for reqs := t.Reqs; len(reqs) > 0; seq++ {
		k := min(n, len(reqs))
		enc = wire.AppendBatchSeq(enc[:0], seq, reqs[:k])
		if _, _, err := wire.DecodeBatchStream(enc, begin, emit); err != nil {
			return 0, err
		}
		p.Commit()
		out = wire.AppendResultsSeq(out[:0], seq, wire.Results{Hits: hits[:k], OutqueueDepth: s.OutqueueLen()})
		got, r, err := wire.DecodeResultsSeq(out, res)
		if err != nil {
			return 0, err
		}
		if got != seq || len(r.Hits) != k {
			return 0, fmt.Errorf("codec rung: results %d/%d for batch %d/%d", got, len(r.Hits), seq, k)
		}
		res = r
		reqs = reqs[k:]
	}
	return time.Since(start), nil
}

// runRungs times every rung over the stream and reports each rung's
// ns/req and its cost over the rung below.
func runRungs(w *workloadDef, t *trace.Trace, m metricSet) error {
	if len(t.Reqs) == 0 {
		return fmt.Errorf("rungs: empty stream")
	}
	times := make([][]float64, len(rungs))
	for range rungRepeats {
		for i, r := range rungs {
			d, err := r.run(w, t)
			if err != nil {
				return fmt.Errorf("rung %s: %w", r.name, err)
			}
			times[i] = append(times[i], float64(d.Nanoseconds())/float64(len(t.Reqs)))
		}
	}
	nsPerReq := map[string]float64{}
	for i, r := range rungs {
		v := median(times[i])
		nsPerReq[r.name] = v
		m.set(r.name+"_ns_per_req", v)
		if r.below != "" {
			m.set(r.name+"_cost_ns_per_req", v-nsPerReq[r.below])
		}
	}
	return nil
}
