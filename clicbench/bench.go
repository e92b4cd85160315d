package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/hint"
	"repro/internal/trace"
)

// options are one run's command-line settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// Pass counts: enough passes for a median even when --seconds is short,
// and a wall-clock ceiling so a slow host still finishes the run in time.
// The first setupPasses passes generate the stream file afresh, so
// setup_s is a median too; later passes replay the same file against
// freshly booted servers.
const (
	minPasses       = 3
	minTracedPasses = 4 // untraced and traced alternate
	setupPasses     = 5
	maxPassWall     = 100 * time.Second
)

// p99Window is how many consecutive batches of one client each exact
// batch_p99_us sample covers, so that ten batches lie beyond each window's
// p99. The metric is the median over all windows of a run: a pass's own
// p99 sits where its slowest 1% begin and swings with every stall of the
// host, while the median over a hundred or more windows holds steady.
const p99Window = 1000

// runResult is one run's outcome.
type runResult struct {
	problems  []string // failed gate checks; empty means correct
	attempted uint64
	failed    uint64
	metrics   metricSet
	samples   int // batch round-trip samples behind the latency metrics
	passes    int
	spansPath string
	stealPct  float64 // CPU time stolen by the hypervisor during the passes
}

// runWorkload runs passes until --seconds of replay have been measured,
// checks every pass against the gate, and computes the run's metrics.
func runWorkload(w *workloadDef, o options, logw io.Writer) (*runResult, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := streamPath(o.outDir, w.name)
	defer os.Remove(path)

	// peak_rss_mb is this workload's own high-water mark, also when one
	// process runs every workload.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	res := &runResult{metrics: metricSet{}}
	var passes []*passResult
	start := time.Now()
	steal := startSteal()
	timed := 0.0
	need := minPasses
	if o.traced {
		need = minTracedPasses
	}
	for len(passes) < need || timed < o.seconds {
		if len(passes) >= need && time.Since(start) > maxPassWall {
			break
		}
		traced := o.traced && len(passes)%2 == 1
		// Start every pass from a collected heap: no pass pays for the
		// garbage of the one before, and the previous pass's servers are
		// gone before the next boots, so peak RSS is one pass's footprint.
		runtime.GC()
		p, err := runPass(w, o.seed, path, traced, len(passes) < setupPasses)
		if err != nil && p == nil {
			return nil, err
		}
		if err != nil {
			// The pass ran but a client failed: keep what it answered for
			// the gate and the metrics, and stop measuring.
			res.problems = append(res.problems, fmt.Sprintf("pass %d: %v", len(passes)+1, err))
			passes = append(passes, p)
			break
		}
		passes = append(passes, p)
		timed += float64(p.timedNs) / 1e9
		p50, p99, n := p.batchQuantiles()
		fmt.Fprintf(logw, "pass %d traced=%v generated=%v setup=%.3fs replay=%.3fs %.0f req/s batch p50 %.0fus p99 %.0fus mean size %.0f read hit %.3f%% steal %.1f%%\n",
			len(passes), traced, p.generated, float64(p.setupNs)/1e9, float64(p.timedNs)/1e9, p.throughput(), p50, p99,
			ratio(float64(p.answered()), float64(n)), p.readHitPct(), p.stealPct)
	}
	res.stealPct = steal.pct()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.passes = len(passes)

	ref, err := serialReference(w, path)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	for i, p := range passes {
		res.attempted += p.attempted
		res.failed += p.attempted - p.answered()
		if p.fileBytes != passes[0].fileBytes {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: regenerated stream has %d bytes, first pass had %d", i+1, p.fileBytes, passes[0].fileBytes))
		}
		for _, msg := range gate(w, p, ref) {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: %s", i+1, msg))
		}
	}
	fmt.Fprintf(logw, "gate: serial reference read hit %.3f%%, %d problems\n", ref.hitPct(), len(res.problems))

	var plain, traced []*passResult
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	res.samples = endToEndMetrics(plain, rss, res.metrics)
	if o.traced && len(res.problems) == 0 {
		if err := layerMetrics(w, o.seed, path, plain, traced, res.metrics); err != nil {
			return nil, err
		}
		res.spansPath = filepath.Join(o.outDir, fmt.Sprintf("spans-%s.csv", w.name))
		if err := writeSpans(res.spansPath, traced[0]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gate checks one pass and returns what it got wrong.
func gate(w *workloadDef, p *passResult, ref *reference) []string {
	var bad []string
	if len(p.clients) != len(ref.requests) {
		return []string{fmt.Sprintf("%d clients replayed, stream holds %d", len(p.clients), len(ref.requests))}
	}
	var hits uint64
	for i, c := range p.clients {
		if c.answered != ref.requests[i] {
			bad = append(bad, fmt.Sprintf("client %s: %d replies, stream holds %d requests", c.name, c.answered, ref.requests[i]))
		}
		if c.reads != ref.reads[i] {
			bad = append(bad, fmt.Sprintf("client %s: %d reads answered, stream holds %d", c.name, c.reads, ref.reads[i]))
		}
		hits += c.hits
	}
	var served uint64
	for i := range p.after.stats {
		served += p.after.stats[i].ReadHits - p.before.stats[i].ReadHits
	}
	if hits != served {
		bad = append(bad, fmt.Sprintf("replies carry %d read hits, servers counted %d", hits, served))
	}
	got, want := p.readHitPct(), ref.hitPct()
	if math.Abs(got-want) > w.hitTolPts {
		bad = append(bad, fmt.Sprintf("read hit %.3f%% is more than %.1f points from the serial reference %.3f%%", got, w.hitTolPts, want))
	}
	return bad
}

// endToEndMetrics computes the user-facing metrics from untraced passes
// and returns the number of batch round-trip samples behind the latency
// figures. Throughput, p50 and set-up time are medians over passes (each
// pass's p50 exact over its own samples); p99 is the median over
// p99Window-batch windows; hit ratios pool every pass.
func endToEndMetrics(passes []*passResult, rssMB float64, m metricSet) int {
	var (
		tput, setup, p50, p99 []float64
		samples               int
		reads                 = map[int]uint64{}
		hits                  = map[int]uint64{}
		answered              uint64
		attempted             uint64
	)
	for _, p := range passes {
		tput = append(tput, p.throughput())
		q50, _, n := p.batchQuantiles()
		p50 = append(p50, q50)
		samples += n
		if p.generated {
			setup = append(setup, float64(p.setupNs)/1e9)
		}
		attempted += p.attempted
		for i, c := range p.clients {
			reads[i] += c.reads
			hits[i] += c.hits
			answered += c.answered
			for _, v := range windowQuantiles(c.rtts, p99Window, 0.99) {
				p99 = append(p99, float64(v)/1e3)
			}
		}
	}
	var allReads, allHits uint64
	minPct := math.Inf(1)
	for i := range reads {
		allReads += reads[i]
		allHits += hits[i]
		minPct = math.Min(minPct, 100*ratio(float64(hits[i]), float64(reads[i])))
	}
	m.set("throughput_rps", median(tput))
	m.set("batch_p50_us", median(p50))
	m.set("batch_p99_us", median(p99))
	m.set("read_hit_pct", 100*ratio(float64(allHits), float64(allReads)))
	m.set("min_client_hit_pct", minPct)
	m.set("answered_pct", 100*ratio(float64(answered), float64(attempted)))
	m.set("setup_s", median(setup))
	m.set("peak_rss_mb", rssMB)
	return samples
}

// writeSpans dumps one traced pass's batches as CSV, one row per span,
// with each span's self time. One pass keeps the file to a few MB; the
// span metrics use every traced pass.
func writeSpans(path string, p *passResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "client,batch,requests,span,parent,start_ns,end_ns,self_ns")
	for _, c := range p.clients {
		for _, s := range c.spans {
			children := s.children()
			fmt.Fprintf(bw, "%d,%d,%d,batch,,%d,%d,%d\n", s.client, s.id, s.n, s.root.start, s.root.end, selfTime(s.root, children))
			for i, name := range spanNames {
				iv := children[i]
				fmt.Fprintf(bw, "%d,%d,%d,%s,batch,%d,%d,%d\n", s.client, s.id, s.n, name, iv.start, iv.end, iv.dur())
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nullSink discards generated requests, so generation can be timed alone.
type nullSink struct {
	dict *hint.Dict
	n    int
}

func (s *nullSink) HintDict() *hint.Dict    { return s.dict }
func (s *nullSink) AppendReq(trace.Request) { s.n++ }
func (s *nullSink) Len() int                { return s.n }
