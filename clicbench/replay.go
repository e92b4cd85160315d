package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hint"
	"repro/internal/netclient"
	"repro/internal/trace"
)

// job is one request batch on its way from the dispatcher to a client's
// worker, with the time the dispatcher spent filling it from the scan
// (nanoseconds since the pass epoch; traced passes only).
type job struct {
	reqs []trace.Request
	scan interval
}

// spanRecord is one traced batch's spans, kept in memory until the run
// ends: the batch span (root) and its children, all sharing the batch's
// ID, with the batch's round trip and whether a statistics window
// completed while it was in flight.
type spanRecord struct {
	id, client, n              int
	root                       interval
	scan, submit, wait, handle interval
	win0                       int // completed windows when submitted
	rtt                        int64
	rotated                    bool
}

// spanNames are a batch span's children, in spanRecord.children order.
var spanNames = []string{"scan", "submit", "wait", "handle"}

// children returns the child spans in spanNames order.
func (s *spanRecord) children() []interval {
	return []interval{s.scan, s.submit, s.wait, s.handle}
}

// clientRun is one client's replay state, shaped like a
// netclient.ReplayIterator worker: request buffers cycle from the
// dispatcher (ch) to the worker, which returns each one (free) once Submit
// has encoded it. Everything but pending and size is touched only by the
// worker goroutine (the pipeline runs the result handler inside Submit and
// Drain); pending is the dispatcher's.
type clientRun struct {
	name    string
	idx     int
	sess    *session
	ch      chan job
	free    chan []trace.Request
	pending job
	sizer   *netclient.BatchSizer
	size    atomic.Int64 // current batch size, read by the dispatcher
	epoch   time.Time
	err     error

	first, last           int64 // first Submit start; end of the final Drain
	answered, reads, hits uint64
	rtts                  []int64

	// Traced passes only.
	traced    bool
	tg        *target
	mark      int64 // when the current blocking call (or its last handler) began waiting
	spans     []spanRecord
	done      int        // spans whose results have arrived
	outBytes  uint64     // bytes sent toward the servers
	sizes     []int      // submitted batch sizes, in order
	announces [][]string // hint keys announced before each batch
}

// clientQueue is the dispatcher → worker channel depth and freeBuffers
// the recycled request buffers per client, as in
// netclient.ReplayIterator.
const (
	clientQueue = 4
	freeBuffers = 8
)

func (c *clientRun) now() int64 { return int64(time.Since(c.epoch)) }

// handle is the pipeline's result handler for this client. Untraced, it
// does what ReplayIterator's handler does plus keeping the round trip.
func (c *clientRun) handle(isRead, hits []bool, rttNs int64) error {
	var h0 int64
	if c.traced {
		h0 = c.now()
	}
	c.answered += uint64(len(isRead))
	for i, rd := range isRead {
		if rd {
			c.reads++
			if hits[i] {
				c.hits++
			}
		}
	}
	c.rtts = append(c.rtts, rttNs)
	c.sizer.Observe(rttNs, len(isRead))
	c.size.Store(int64(c.sizer.Current()))
	if c.traced {
		c.closeSpans(h0, rttNs)
	}
	return nil
}

// closeSpans completes the spans of the oldest batch in flight (results
// arrive in submission order); its handler began at h0.
func (c *clientRun) closeSpans(h0, rttNs int64) {
	s := &c.spans[c.done]
	c.done++
	s.wait = interval{c.mark, h0}
	s.rtt = rttNs
	s.rotated = c.tg.windows() != s.win0
	h1 := c.now()
	s.handle = interval{h0, h1}
	s.root = interval{s.scan.start, h1}
	c.mark = h1
}

// work is the client's worker goroutine: submit each dispatched batch,
// announcing newly seen hint keys first, then drain the pipeline.
func (c *clientRun) work(log *keyLog, failed *atomic.Bool) {
	for j := range c.ch {
		// On failure keep draining so the dispatcher never blocks.
		if c.err == nil {
			if c.err = c.send(log, j); c.err != nil {
				failed.Store(true)
			}
		}
		select {
		case c.free <- j.reqs[:0]:
		default:
		}
	}
	if c.err == nil {
		c.mark = c.now()
		if c.err = c.sess.drain(); c.err != nil {
			failed.Store(true)
		}
	}
	c.last = c.now()
}

func (c *clientRun) send(log *keyLog, j job) error {
	fresh := log.since(c.sess.announced())
	if len(fresh) > 0 {
		if err := c.sess.announce(fresh); err != nil {
			return err
		}
	}
	if c.first == 0 {
		c.first = c.now()
	}
	if !c.traced {
		return c.sess.submit(j.reqs)
	}
	c.announces = append(c.announces, fresh)
	c.sizes = append(c.sizes, len(j.reqs))
	i := len(c.spans)
	c.spans = append(c.spans, spanRecord{id: i, client: c.idx, n: len(j.reqs), scan: j.scan, win0: c.tg.windows()})
	c.mark = c.now()
	if err := c.sess.submit(j.reqs); err != nil {
		return err
	}
	// A handler that ran inside Submit (completing an older batch) moved
	// mark to its end: what follows it is this batch's encode and write.
	c.spans[i].submit = interval{c.mark, c.now()}
	return nil
}

// hand passes the pending batch to the worker and starts the next one in
// a recycled buffer. It runs on the dispatcher.
func (c *clientRun) hand() {
	if c.traced {
		c.pending.scan.end = c.now()
	}
	c.ch <- c.pending
	c.pending = job{}
	select {
	case c.pending.reqs = <-c.free:
	default:
	}
}

// keyLog is the append-only list of hint keys the scan has discovered,
// written by the dispatcher and read by the workers.
type keyLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *keyLog) grow(d *hint.Dict) {
	l.mu.Lock()
	for id := len(l.keys); id < d.Len(); id++ {
		l.keys = append(l.keys, d.Key(hint.ID(id)))
	}
	l.mu.Unlock()
}

// since returns a copy of the keys at or after index from.
func (l *keyLog) since(from int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from >= len(l.keys) {
		return nil
	}
	return append([]string(nil), l.keys[from:]...)
}

// passResult is everything one pass measured.
type passResult struct {
	traced    bool
	generated bool  // the pass generated the stream file
	setupNs   int64 // pass start to first batch sent
	timedNs   int64 // first batch sent to last result received
	fileBytes int64
	stealPct  float64 // CPU time stolen by the hypervisor during the replay
	attempted uint64
	clients   []*clientRun
	before    *counters
	after     *counters
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

func (p *passResult) answered() uint64 {
	n := uint64(0)
	for _, c := range p.clients {
		n += c.answered
	}
	return n
}

// readHitPct is the pass's read hit ratio, from the replies.
func (p *passResult) readHitPct() float64 {
	var reads, hits uint64
	for _, c := range p.clients {
		reads += c.reads
		hits += c.hits
	}
	return 100 * ratio(float64(hits), float64(reads))
}

func (p *passResult) throughput() float64 {
	return ratio(float64(p.answered()), float64(p.timedNs)/1e9)
}

// batchQuantiles returns the pass's exact median and 99th-percentile batch
// round trips in microseconds, and the sample count.
func (p *passResult) batchQuantiles() (p50, p99 float64, n int) {
	var rtts []int64
	for _, c := range p.clients {
		rtts = append(rtts, c.rtts...)
	}
	return float64(quantile(rtts, 0.50)) / 1e3, float64(quantile(rtts, 0.99)) / 1e3, len(rtts)
}

// runPass is one user session: generate the stream into a v2 file (when
// generate is set; otherwise the previous pass's file is replayed again),
// boot the target, connect every client, replay the file, and read the
// counters around the replay.
func runPass(w *workloadDef, seed int64, path string, traced, generate bool) (p *passResult, err error) {
	epoch := time.Now()
	p = &passResult{traced: traced, generated: generate}
	if generate {
		if err := generateStream(w, seed, path); err != nil {
			return nil, err
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	p.fileBytes = st.Size()

	tg, err := startTarget(w)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := tg.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	sc, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	defer sc.Close()

	for i, name := range sc.Clients() {
		c := &clientRun{
			name: name, idx: i, tg: tg, epoch: epoch, traced: traced,
			ch:    make(chan job, clientQueue),
			free:  make(chan []trace.Request, freeBuffers),
			sizer: netclient.NewBatchSizer(0),
		}
		c.size.Store(int64(c.sizer.Current()))
		if c.sess, err = tg.dial(name, netclient.DefaultDepth, c.handle); err != nil {
			return nil, fmt.Errorf("connecting client %s: %w", name, err)
		}
		defer c.sess.close()
		p.clients = append(p.clients, c)
	}
	if p.before, err = tg.read(); err != nil {
		return nil, err
	}
	if traced {
		runtime.ReadMemStats(&p.mem0)
	}

	steal := startSteal()
	if err := p.dispatch(sc); err != nil {
		return nil, err
	}
	p.stealPct = steal.pct()

	if traced {
		runtime.ReadMemStats(&p.mem1)
	}
	if p.after, err = tg.read(); err != nil {
		return nil, err
	}
	first, last := int64(-1), int64(0)
	for _, c := range p.clients {
		if c.err != nil {
			return p, fmt.Errorf("client %s: %w", c.name, c.err)
		}
		if c.first > 0 && (first < 0 || c.first < first) {
			first = c.first
		}
		if c.last > last {
			last = c.last
		}
	}
	p.setupNs = first
	p.timedNs = last - first
	if traced {
		if err := p.countOutbound(path, tg); err != nil {
			return nil, err
		}
	}
	// Keep the measurements only: the pass's servers, connections and
	// batch buffers must not outlive it.
	for _, c := range p.clients {
		c.tg, c.sess, c.ch, c.free, c.sizer, c.pending = nil, nil, nil, nil, nil, job{}
	}
	return p, nil
}

// dispatch scans the stream and hands each client its requests in batches
// of the client's current size, like netclient.ReplayIterator: one scan,
// one worker per client.
func (p *passResult) dispatch(sc *trace.Scanner) error {
	var (
		log    keyLog
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *clientRun) {
			defer wg.Done()
			c.work(&log, &failed)
		}(c)
	}
	dictLen := -1
	var scanErr error
	for sc.Scan() && !failed.Load() {
		r := sc.Request()
		if n := sc.HintDict().Len(); n != dictLen {
			log.grow(sc.HintDict())
			dictLen = n
		}
		if int(r.Client) >= len(p.clients) {
			scanErr = fmt.Errorf("request names client %d, stream declares %d", r.Client, len(p.clients))
			break
		}
		c := p.clients[r.Client]
		if c.traced && len(c.pending.reqs) == 0 {
			c.pending.scan.start = c.now()
		}
		c.pending.reqs = append(c.pending.reqs, r)
		p.attempted++
		if len(c.pending.reqs) >= int(c.size.Load()) {
			c.hand()
		}
	}
	for _, c := range p.clients {
		if len(c.pending.reqs) > 0 {
			c.hand()
		}
		close(c.ch)
	}
	wg.Wait()
	if scanErr != nil {
		return scanErr
	}
	return sc.Err()
}

// countOutbound works out, after the replay, the bytes each client sent
// toward the servers: it rescans the stream, cuts every client's requests
// into the batches it submitted, and re-encodes them. Doing this outside
// the replay keeps the encoding work off the traced passes' timing.
func (p *passResult) countOutbound(path string, tg *target) error {
	sc, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer sc.Close()
	frames := make([]*frameCounter, len(p.clients))
	pending := make([][]trace.Request, len(p.clients))
	next := make([]int, len(p.clients))
	for i, c := range p.clients {
		frames[i] = tg.newFrameCounter()
		if len(c.sizes) > 0 && len(c.announces[0]) > 0 {
			frames[i].announce(c.announces[0])
		}
	}
	for sc.Scan() {
		r := sc.Request()
		i := int(r.Client)
		if i >= len(p.clients) {
			return fmt.Errorf("request names client %d, stream declares %d", r.Client, len(p.clients))
		}
		c := p.clients[i]
		if next[i] >= len(c.sizes) {
			return fmt.Errorf("client %s: stream holds more requests than it submitted", c.name)
		}
		pending[i] = append(pending[i], r)
		if len(pending[i]) < c.sizes[next[i]] {
			continue
		}
		frames[i].batch(pending[i])
		pending[i] = pending[i][:0]
		next[i]++
		if next[i] < len(c.sizes) && len(c.announces[next[i]]) > 0 {
			frames[i].announce(c.announces[next[i]])
		}
	}
	for i, c := range p.clients {
		c.outBytes = frames[i].bytes
		c.sizes, c.announces = nil, nil
	}
	return sc.Err()
}

// generateStream writes the workload's stream for seed into a v2 file.
func generateStream(w *workloadDef, seed int64, path string) error {
	spec, err := w.spec(seed)
	if err != nil {
		return err
	}
	tw, err := trace.Create(path, spec.Preset.Name, spec.Preset.PageSize, spec.ClientNames(), trace.WriterOptions{})
	if err != nil {
		return err
	}
	if err := spec.GenerateTo(tw); err != nil {
		tw.Close()
		return fmt.Errorf("generating %s: %w", spec, err)
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// streamPath is where a run keeps its generated stream.
func streamPath(dir, workload string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.trc", workload, os.Getpid()))
}
