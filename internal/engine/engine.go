// Package engine runs experiment grids in parallel. Every cell of the
// evaluation grid — one policy instance driven over one trace — is an
// independent, deterministic simulation, so the full policy × cache-size ×
// trace product splits perfectly across cores (parallel splitting of
// independent subproblems). The runner fans cells out over a worker pool
// and returns results in submission order, byte-identical to the serial
// path: parallelism changes only the wall clock, never the numbers.
//
// The package also hosts Replay, the concurrent counterpart of sim.Run:
// one goroutine per client streams its requests to a Target — a
// core.Sharded front in process, a cache server over loopback TCP, or a
// cluster through its router — modelling a storage server under
// simultaneous load rather than a round-robin replay.
package engine

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Job is one grid cell: a policy (built fresh by New, inside the worker)
// simulated over a trace. The trace is shared read-only across cells.
type Job struct {
	New   func() policy.Policy
	Trace *trace.Trace
}

// Options configure a parallel run.
type Options struct {
	// Workers is the pool size; 0 or negative selects GOMAXPROCS. One
	// worker reproduces the serial path exactly (no goroutines).
	Workers int
	// Progress, when non-nil, is called after each cell completes with the
	// number of cells done so far, the total, and the cell's result. Calls
	// are serialized but arrive in completion order, not submission order.
	Progress func(done, total int, r sim.Result)
}

func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// Run executes every job and returns the results indexed like jobs —
// deterministic, serial-identical ordering regardless of worker count.
func Run(jobs []Job, opt Options) []sim.Result {
	results := make([]sim.Result, len(jobs))
	workers := opt.workers(len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = sim.Run(j.New(), j.Trace)
			if opt.Progress != nil {
				opt.Progress(i+1, len(jobs), results[i])
			}
		}
		return results
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes Progress and the done counter
		done int
		idx  = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := sim.Run(jobs[i].New(), jobs[i].Trace)
				results[i] = r
				if opt.Progress != nil {
					mu.Lock()
					done++
					opt.Progress(done, len(jobs), r)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// Sweep is the parallel drop-in for sim.Sweep: it runs the constructor at
// each cache size over the trace and returns results in size order.
func Sweep(mk policy.Constructor, t *trace.Trace, sizes []int, opt Options) []sim.Result {
	jobs := make([]Job, len(sizes))
	for i, size := range sizes {
		size := size
		jobs[i] = Job{New: func() policy.Policy { return mk(size) }, Trace: t}
	}
	return Run(jobs, opt)
}

// Grid fans the full policy × cache-size product over one trace and returns
// the per-policy sweeps keyed by policy name, each in size order. Unknown
// policy names are rejected up front, before any worker starts.
func Grid(policies []string, sizes []int, t *trace.Trace, clicCfg core.Config, opt Options) (map[string][]sim.Result, error) {
	jobs := make([]Job, 0, len(policies)*len(sizes))
	for _, name := range policies {
		if _, err := sim.NewPolicy(name, 1, t, clicCfg); err != nil {
			return nil, err
		}
		mk := sim.Constructor(name, t, clicCfg)
		for _, size := range sizes {
			size := size
			jobs = append(jobs, Job{New: func() policy.Policy { return mk(size) }, Trace: t})
		}
	}
	flat := Run(jobs, opt)
	out := make(map[string][]sim.Result, len(policies))
	for pi, name := range policies {
		out[name] = flat[pi*len(sizes) : (pi+1)*len(sizes)]
	}
	return out, nil
}
