package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ReplayOptions tune a Replay. The network targets (internal/netclient,
// internal/cluster) read all three; the in-process target batches at
// core.DefaultAccessBatch with one batch in flight and reads only Limit.
type ReplayOptions struct {
	// BatchSize is the request count per batch; 0 selects adaptive sizing
	// (netclient.BatchSizer: start small, grow toward wire.DefaultBatch
	// while the per-request round trip stays flat).
	BatchSize int
	// Depth is the in-flight batch window per connection: 0 selects
	// netclient.DefaultDepth, 1 is lock-step. Values above a server's
	// advertised window are capped at its handshake.
	Depth int
	// Limit caps the number of requests replayed; 0 replays the whole
	// stream.
	Limit int
}

// Target is what a replay drives: a cache that serves each client through
// a Session of its own. Replay calls Open and Label from one goroutine.
type Target interface {
	// Open starts the named client's session, handing it the hint keys the
	// stream has revealed so far. The session passes every completed batch
	// to tally — its read flags and hit verdicts, in submission order — on
	// the goroutine that called Submit or Drain.
	Open(client string, keys []string, opt ReplayOptions, tally func(isRead, hits []bool)) (Session, error)
	// Label names what answered: its policy label and total capacity.
	Label() (policy string, capacity int, err error)
}

// Session is one client's connection to a Target, used by one goroutine.
type Session interface {
	// Announce extends the session's hint table with keys revealed after
	// Open; Replay calls it before the first batch that uses them.
	Announce(keys []string) error
	// Submit sends one batch. Its results may arrive after Submit returns,
	// but reqs is consumed: the caller reuses it.
	Submit(reqs []trace.Request) error
	// Drain completes every batch still in flight.
	Drain() error
	// Close releases the session.
	Close() error
	// BatchSize is the request count the session wants in its next batch.
	BatchSize() int
}

// Replay streams src to target with one session and one goroutine per
// client, opening a client's session when the stream first reaches it.
// The scanning goroutine cuts each client's requests into batches of the
// session's current size and hands them over through recycled buffers, so
// memory holds a few batches per client, never the stream. Hint keys the
// stream reveals are announced to each session ahead of the first batch
// that uses them.
//
// Per-client read counts are exact. The aggregate hit count depends on how
// the clients' requests interleave at the cache, so with several clients it
// varies from run to run; with one client it equals a serial replay. The
// result has one PerClient entry per client the stream has named by its
// end, whether or not it issued a request; a client the stream leaves
// unnamed is called client<i>. If any session fails, Replay stops and
// returns the first failing client's error.
func Replay(target Target, src trace.Source, opt ReplayOptions) (sim.Result, error) {
	it, err := src.Iter()
	if err != nil {
		return sim.Result{}, err
	}
	defer it.Close()

	var (
		log     keyLog
		clients []*replayClient
		wg      sync.WaitGroup
		failed  atomic.Bool
		openErr error
		total   uint64
		dictLen = -1
	)
	open := func() error {
		// ch lets the scan run a few batches ahead of a busy worker; free
		// has room for every buffer in circulation (ch's, the one being
		// submitted and pending), so recycling never drops one.
		c := &replayClient{
			ch:   make(chan []trace.Request, 4),
			free: make(chan []trace.Request, 8),
			st:   sim.ClientStat{Name: clientName(it.Clients(), len(clients))},
		}
		keys := log.since(0)
		sess, err := target.Open(c.st.Name, keys, opt, c.tally)
		if err != nil {
			return err
		}
		c.sess, c.announced = sess, len(keys)
		c.size.Store(int64(sess.BatchSize()))
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(&log, &failed)
		}()
		return nil
	}

scan:
	for it.Scan() && !failed.Load() {
		if opt.Limit > 0 && total >= uint64(opt.Limit) {
			break
		}
		r := it.Request()
		// The dictionary grows on this goroutine only, so comparing its
		// length keeps the log's mutex off the per-request path.
		if n := it.HintDict().Len(); n != dictLen {
			log.grow(it.HintDict())
			dictLen = n
		}
		for int(r.Client) >= len(clients) {
			if openErr = open(); openErr != nil {
				break scan
			}
		}
		c := clients[r.Client]
		c.pending = append(c.pending, r)
		if len(c.pending) >= int(c.size.Load()) {
			c.ch <- c.pending
			select {
			case c.pending = <-c.free:
			default:
				c.pending = nil
			}
		}
		total++
	}
	for _, c := range clients {
		if len(c.pending) > 0 {
			c.ch <- c.pending
		}
		close(c.ch)
	}
	wg.Wait()
	if openErr != nil {
		return sim.Result{}, openErr
	}
	if err := it.Err(); err != nil {
		return sim.Result{}, err
	}
	for _, c := range clients {
		if c.err != nil {
			return sim.Result{}, c.err
		}
	}

	res := sim.Result{Trace: it.Name(), Requests: total}
	if res.Policy, res.CacheSize, err = target.Label(); err != nil {
		return sim.Result{}, err
	}
	names := it.Clients()
	res.PerClient = make([]sim.ClientStat, max(len(names), len(clients)))
	for i := range res.PerClient {
		st := sim.ClientStat{Name: clientName(names, i)}
		if i < len(clients) {
			st = clients[i].st
		}
		res.PerClient[i] = st
		res.Reads += st.Reads
		res.ReadHits += st.ReadHits
	}
	return res, nil
}

func clientName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("client%d", i)
}

// replayClient is one client's share of a Replay. The scanning goroutine
// owns pending and reads size; everything else belongs to the worker.
type replayClient struct {
	sess      Session
	ch, free  chan []trace.Request
	pending   []trace.Request
	size      atomic.Int64 // the session's batch size as of its last Submit
	announced int          // hint keys the session has been told
	st        sim.ClientStat
	err       error
}

// run is the client's worker: submit each batch handed over, then drain
// the session. After a failure anywhere it keeps receiving without
// submitting, so the scan never blocks.
func (c *replayClient) run(log *keyLog, failed *atomic.Bool) {
	defer c.sess.Close() // drained or abandoned: nothing left to lose
	for reqs := range c.ch {
		if c.err == nil && !failed.Load() {
			if c.err = c.send(log, reqs); c.err != nil {
				failed.Store(true)
			}
		}
		select {
		case c.free <- reqs[:0]:
		default:
		}
	}
	if c.err == nil && !failed.Load() {
		if c.err = c.sess.Drain(); c.err != nil {
			failed.Store(true)
		}
	}
}

func (c *replayClient) send(log *keyLog, reqs []trace.Request) error {
	if fresh := log.since(c.announced); len(fresh) > 0 {
		if err := c.sess.Announce(fresh); err != nil {
			return err
		}
		c.announced += len(fresh)
	}
	err := c.sess.Submit(reqs)
	c.size.Store(int64(c.sess.BatchSize()))
	return err
}

// tally is the client's read and hit accounting, fed by its session.
func (c *replayClient) tally(isRead, hits []bool) {
	for i, rd := range isRead {
		if rd {
			c.st.Reads++
			if hits[i] {
				c.st.ReadHits++
			}
		}
	}
}

// keyLog is the append-only list of hint keys a streaming scan has
// revealed, shared between the scanning goroutine (writer) and the client
// workers (readers catching their sessions up before each batch).
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

// since returns a copy of the keys appended at or after index from.
func (l *keyLog) since(from int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from >= len(l.keys) {
		return nil
	}
	out := make([]string, len(l.keys)-from)
	copy(out, l.keys[from:])
	return out
}

// InProcess is the in-process Target: every client drives the shared
// front through its own core.Producer in batches of
// core.DefaultAccessBatch, the shape the network server feeds it, so the
// owner engine's frame fan-out runs the same way in process and over TCP.
// Metrics, when non-nil, times each batch and fires its marks.
type InProcess struct {
	Front   *core.Sharded
	Metrics *ServeMetrics
}

// Open implements Target. The front needs no hint vocabulary: requests
// reach it carrying the stream's own hint IDs.
func (t InProcess) Open(_ string, _ []string, _ ReplayOptions, tally func(isRead, hits []bool)) (Session, error) {
	s := &producerSession{
		prod:   t.Front.NewProducer(),
		m:      t.Metrics,
		tally:  tally,
		isRead: make([]bool, core.DefaultAccessBatch),
		hits:   make([]bool, core.DefaultAccessBatch),
	}
	if s.m != nil && s.m.BatchLatency != nil {
		s.clock = s.m.Clock
		if s.clock == nil {
			start := time.Now()
			s.clock = func() time.Duration { return time.Since(start) }
		}
	}
	return s, nil
}

// Label implements Target.
func (t InProcess) Label() (string, int, error) { return t.Front.Name(), t.Front.Capacity(), nil }

// producerSession serves one client's batches synchronously: each
// batch's results are tallied before Submit returns.
type producerSession struct {
	prod   *core.Producer
	m      *ServeMetrics
	clock  func() time.Duration // non-nil when batches are timed
	tally  func(isRead, hits []bool)
	isRead []bool
	hits   []bool
}

func (s *producerSession) Submit(reqs []trace.Request) error {
	hits, isRead := s.hits[:len(reqs)], s.isRead[:len(reqs)]
	if s.clock != nil {
		t0 := s.clock()
		s.prod.AccessBatch(reqs, hits)
		s.m.BatchLatency.Observe(uint64(s.clock() - t0))
	} else {
		s.prod.AccessBatch(reqs, hits)
	}
	for i := range reqs {
		isRead[i] = reqs[i].Op == trace.Read
	}
	s.tally(isRead, hits)
	if s.m != nil {
		s.m.mark(len(reqs))
	}
	return nil
}

func (s *producerSession) Announce([]string) error { return nil }
func (s *producerSession) Drain() error            { return nil }
func (s *producerSession) BatchSize() int          { return core.DefaultAccessBatch }

func (s *producerSession) Close() error {
	s.prod.Close()
	return nil
}
