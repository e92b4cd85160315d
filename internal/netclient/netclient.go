// Package netclient is the client side of the wire protocol: a thin
// connection type (Dial/Hello/Announce/Do) for programs that want to talk
// to a cache server directly, a Pipeline that keeps several batches in
// flight on one connection, and Target, which lets engine.Replay drive a
// server over the network — one pipelined connection per trace client,
// counting hits from the server's responses. Replays take any
// trace.Source (file, in-memory trace, or live workload generator), so
// arbitrarily long streams replay in constant memory, and their results
// are shaped exactly like the in-process target's.
package netclient

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Package-wide client instrumentation: every Do on every connection lands
// in one histogram of end-to-end batch round-trip times (encode, network,
// server service, decode) and one batch counter. Process-wide like
// wire.Metrics — an observation is two atomic bumps, nothing per
// connection to configure.
var (
	batchRTT     metrics.Histogram
	batchesTotal metrics.Counter
)

// BatchRTT exposes the cumulative round-trip histogram (nanoseconds per
// Do batch) for summaries and timelines.
func BatchRTT() *metrics.Histogram { return &batchRTT }

// RegisterMetrics registers the client-side series on r under the
// clic_netclient_* names.
func RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("clic_netclient_batches_total", "Request batches completed by in-process clients.",
		func() float64 { return float64(batchesTotal.Value()) })
	r.RegisterHistogram("clic_netclient_batch_rtt_ns", "End-to-end batch round-trip time in nanoseconds.", &batchRTT)
}

// Conn is one client connection to a cache server. Not safe for concurrent
// use; a replay gives each client goroutine its own Conn.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	ack       wire.HelloAck
	version   int // negotiated protocol version (0 before Hello)
	announced int // hint keys announced so far (Hello + Announce)

	scratch []byte       // frame read buffer
	enc     []byte       // frame build buffer
	res     wire.Results // reused results decode target
}

// Dial connects to a cache server without handshaking; call Hello next.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 1<<16),
		bw: bufio.NewWriterSize(nc, 1<<16),
	}, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// readFrame reads one frame, surfacing server Error frames as errors.
func (c *Conn) readFrame() ([]byte, error) {
	p, err := wire.ReadFrame(c.br, c.scratch)
	if err != nil {
		return nil, err
	}
	c.scratch = p
	if t, _ := wire.PayloadType(p); t == wire.TypeError {
		msg, err := wire.DecodeError(p)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("netclient: server error: %s", msg)
	}
	return p, nil
}

// Hello performs the handshake, announcing the client's name and initial
// hint vocabulary (requests then reference keys by announcement index).
func (c *Conn) Hello(client string, keys []string) (wire.HelloAck, error) {
	c.enc = wire.AppendHello(c.enc[:0], wire.Hello{Version: wire.Version, Client: client, Keys: keys})
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return wire.HelloAck{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return wire.HelloAck{}, err
	}
	p, err := c.readFrame()
	if err != nil {
		return wire.HelloAck{}, err
	}
	ack, err := wire.DecodeHelloAck(p)
	if err != nil {
		return wire.HelloAck{}, err
	}
	// The server acks min(our version, its version); accept it under the
	// same floor rule the server applies to us.
	v, err := wire.Negotiate(ack.Version)
	if err != nil {
		return wire.HelloAck{}, fmt.Errorf("netclient: %w", err)
	}
	c.ack = ack
	c.version = v
	c.announced = len(keys)
	return ack, nil
}

// Ack returns the handshake response (zero before Hello).
func (c *Conn) Ack() wire.HelloAck { return c.ack }

// Version returns the negotiated protocol version (0 before Hello).
func (c *Conn) Version() int { return c.version }

// Probe dials addr and completes a throwaway handshake, verifying that a
// compatible cache server is listening there, so a replay can validate
// its addresses up front instead of failing confusingly mid-replay.
func Probe(addr string) error {
	conn, err := Dial(addr)
	if err != nil {
		return fmt.Errorf("netclient: probing %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := conn.Hello("probe", nil); err != nil {
		return fmt.Errorf("netclient: probing %s: %w", addr, err)
	}
	return nil
}

// Announced returns how many hint keys this connection has announced.
func (c *Conn) Announced() int { return c.announced }

// Announce extends the connection's hint table with keys discovered after
// Hello. The frame is buffered and rides ahead of the next batch; the
// server sends no reply.
func (c *Conn) Announce(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	c.enc = wire.AppendIntern(c.enc[:0], keys)
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return err
	}
	c.announced += len(keys)
	return nil
}

// Do sends one request batch and returns the server's per-request results.
// Request Hint fields must index the announced hint table; Client fields
// are ignored. The returned Results reuses the connection's buffers and is
// valid until the next Do.
func (c *Conn) Do(reqs []trace.Request) (wire.Results, error) {
	start := time.Now()
	c.enc = wire.AppendBatch(c.enc[:0], reqs)
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return wire.Results{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return wire.Results{}, err
	}
	p, err := c.readFrame()
	if err != nil {
		return wire.Results{}, err
	}
	res, err := wire.DecodeResults(p, c.res)
	if err != nil {
		return wire.Results{}, err
	}
	c.res = res
	if len(res.Hits) != len(reqs) {
		return wire.Results{}, fmt.Errorf("netclient: %d results for %d requests", len(res.Hits), len(reqs))
	}
	batchRTT.Observe(uint64(time.Since(start)))
	batchesTotal.Inc()
	return res, nil
}

// SendSummary ships one merged-learning window summary to the peer — the
// node-to-node exchange of internal/cluster's gossip path. The peer sends
// no reply. It requires the negotiated protocol to define Summary frames;
// against an older peer it fails without writing anything, so a
// mixed-version cluster degrades to unmerged learning instead of desyncing
// the stream.
func (c *Conn) SendSummary(s wire.Summary) error {
	if c.version < wire.SummaryVersion {
		return fmt.Errorf("netclient: peer negotiated protocol %d, summaries need %d", c.version, wire.SummaryVersion)
	}
	c.enc = wire.AppendSummary(c.enc[:0], s)
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return err
	}
	return c.bw.Flush()
}

// PipelineHandler consumes one completed pipelined batch: tag is the
// value given to Submit, isRead flags the positions that were reads (in
// batch order), res carries the server's verdicts (valid only during the
// call), and rttNs is the batch's submit-to-result round-trip time.
type PipelineHandler func(tag any, isRead []bool, res wire.Results, rttNs int64) error

// pbatch is one in-flight pipelined batch: what the handler needs when
// its results arrive. Request payloads are not retained — Submit encodes
// them into the write buffer immediately, so callers may reuse their
// request slices the moment Submit returns.
type pbatch struct {
	seq    uint64
	tag    any
	isRead []bool
	start  time.Time
}

// Pipeline keeps up to depth batches in flight on one connection,
// overlapping the request stream with the server's responses instead of
// stalling a full round trip per batch. Results arrive in sequence order
// (TCP preserves frame order and the server answers in order); each is
// delivered to the handler as it completes. Against a server that
// negotiated below wire.PipelineVersion the pipeline degrades to
// lock-step (depth 1, untagged frames), so every caller works unchanged
// against v2 peers. Not safe for concurrent use, like Conn.
type Pipeline struct {
	c       *Conn
	depth   int
	handler PipelineHandler

	seq       uint64
	ring      []*pbatch // FIFO of in-flight batches
	head, n   int
	free      []*pbatch
	unflushed bool
}

// Pipeline returns a pipelined sender over the connection with at most
// depth batches in flight (min 1; capped at the server's advertised
// window, and forced to 1 when the negotiated protocol predates
// pipelining). Use Submit/Drain instead of Do; mixing them corrupts the
// stream.
func (c *Conn) Pipeline(depth int, h PipelineHandler) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	if c.version >= wire.PipelineVersion {
		if w := c.ack.Window; w > 0 && depth > w {
			depth = w
		}
	} else {
		depth = 1
	}
	return &Pipeline{c: c, depth: depth, handler: h, ring: make([]*pbatch, depth)}
}

// Depth returns the effective in-flight window after server capping.
func (p *Pipeline) Depth() int { return p.depth }

// Submit encodes and sends one batch, completing the oldest in-flight
// batch first when the window is full. reqs is fully consumed before
// Submit returns; tag is handed back to the handler with the batch's
// results. Writes are buffered — the wire sees them when the window
// forces a read, or at Drain — so a stream of small batches coalesces
// into few syscalls.
func (p *Pipeline) Submit(reqs []trace.Request, tag any) error {
	if p.n == p.depth {
		if err := p.completeOne(); err != nil {
			return err
		}
	}
	var b *pbatch
	if k := len(p.free); k > 0 {
		b, p.free = p.free[k-1], p.free[:k-1]
	} else {
		b = &pbatch{}
	}
	b.tag = tag
	b.start = time.Now()
	b.isRead = b.isRead[:0]
	for i := range reqs {
		b.isRead = append(b.isRead, reqs[i].Op == trace.Read)
	}
	if p.c.version >= wire.PipelineVersion {
		b.seq = p.seq
		p.seq++
		p.c.enc = wire.AppendBatchSeq(p.c.enc[:0], b.seq, reqs)
	} else {
		p.c.enc = wire.AppendBatch(p.c.enc[:0], reqs)
	}
	if err := wire.WriteFrame(p.c.bw, p.c.enc); err != nil {
		return err
	}
	p.unflushed = true
	p.ring[(p.head+p.n)%p.depth] = b
	p.n++
	return nil
}

// Inflight returns the number of batches awaiting results.
func (p *Pipeline) Inflight() int { return p.n }

// completeOne flushes any buffered writes (the server cannot answer
// frames it has not received) and consumes the oldest in-flight batch's
// results.
func (p *Pipeline) completeOne() error {
	if p.unflushed {
		if err := p.c.bw.Flush(); err != nil {
			return err
		}
		p.unflushed = false
	}
	b := p.ring[p.head]
	payload, err := p.c.readFrame()
	if err != nil {
		return err
	}
	var res wire.Results
	if p.c.version >= wire.PipelineVersion {
		seq, r, err := wire.DecodeResultsSeq(payload, p.c.res)
		if err != nil {
			return err
		}
		if seq != b.seq {
			return fmt.Errorf("netclient: results for sequence %d, want %d (pipelined results must arrive in order)", seq, b.seq)
		}
		res = r
	} else {
		res, err = wire.DecodeResults(payload, p.c.res)
		if err != nil {
			return err
		}
	}
	p.c.res = res
	if len(res.Hits) != len(b.isRead) {
		return fmt.Errorf("netclient: %d results for %d requests", len(res.Hits), len(b.isRead))
	}
	rtt := time.Since(b.start)
	batchRTT.Observe(uint64(rtt))
	batchesTotal.Inc()
	p.ring[p.head] = nil
	p.head = (p.head + 1) % p.depth
	p.n--
	err = p.handler(b.tag, b.isRead, res, int64(rtt))
	b.tag = nil
	p.free = append(p.free, b)
	return err
}

// Drain flushes and completes every in-flight batch.
func (p *Pipeline) Drain() error {
	for p.n > 0 {
		if err := p.completeOne(); err != nil {
			return err
		}
	}
	if p.unflushed {
		if err := p.c.bw.Flush(); err != nil {
			return err
		}
		p.unflushed = false
	}
	return nil
}

// DefaultDepth is the in-flight batch window a replay uses when
// engine.ReplayOptions.Depth is zero: deep enough to hide a loopback
// round trip behind the server's service time, shallow enough that
// per-connection buffering stays small.
const DefaultDepth = 8

// adaptiveStartBatch is where adaptive batch sizing begins; it doubles
// from here toward wire.DefaultBatch.
const adaptiveStartBatch = 64

// adaptiveSlack is how much the per-request latency may exceed the best
// observed before the sizer stops growing the batch.
const adaptiveSlack = 1.25

// BatchSizer grows the per-frame request count toward the
// wire.DefaultBatch sweet spot while the observed per-request round-trip
// latency stays flat: after a sample window of batches at the current
// size, it doubles the size if the window's median per-request RTT is
// within adaptiveSlack of the best window median seen; a degraded window
// holds the size instead. One settle window is discarded after start and
// after every growth, so the pipeline-fill transient (early batches see
// no queueing and would make every steady-state window look degraded)
// and the first batches at a new size never enter the comparison. The
// replay targets here and in internal/cluster feed it from their result
// handlers; an explicit fixed size pins it and disables adaptation. Not
// safe for concurrent use.
type BatchSizer struct {
	size   int
	fixed  bool
	sample [8]float64 // per-request RTTs of the current window, ns
	sn     int
	settle int // batches to discard before sampling resumes
	best   float64
}

// NewBatchSizer returns a sizer pinned at fixed when fixed > 0, adaptive
// otherwise.
func NewBatchSizer(fixed int) *BatchSizer {
	if fixed > 0 {
		return &BatchSizer{size: fixed, fixed: true}
	}
	s := &BatchSizer{size: adaptiveStartBatch}
	s.settle = len(s.sample)
	return s
}

// Current returns the batch size to use for the next frame.
func (s *BatchSizer) Current() int { return s.size }

// Observe records one completed batch's round trip (n requests in
// rttNs nanoseconds).
func (s *BatchSizer) Observe(rttNs int64, n int) {
	if s.fixed || s.size >= wire.DefaultBatch || n == 0 {
		return
	}
	if s.settle > 0 {
		s.settle--
		return
	}
	s.sample[s.sn] = float64(rttNs) / float64(n)
	s.sn++
	if s.sn < len(s.sample) {
		return
	}
	s.sn = 0
	// Median of the window: robust against the occasional batch that
	// lands behind a window rotation or a scheduler hiccup.
	var sorted [8]float64
	copy(sorted[:], s.sample[:])
	sort.Float64s(sorted[:])
	med := sorted[len(sorted)/2]
	if s.best == 0 || med < s.best {
		s.best = med
	}
	if med <= s.best*adaptiveSlack {
		s.size *= 2
		if s.size > wire.DefaultBatch {
			s.size = wire.DefaultBatch
		}
		s.settle = len(s.sample)
	}
}

// policyName mirrors core.Sharded.Name from the handshake, so loopback
// results label themselves like the in-process path.
func policyName(ack wire.HelloAck) string {
	if ack.Shards == 1 {
		return "CLIC"
	}
	return fmt.Sprintf("CLIC/%d", ack.Shards)
}

// Target is a cache server as an engine.Target: engine.Replay gives each
// client its own pipelined connection, with adaptive batch sizing unless
// ReplayOptions.BatchSize pins it.
type Target struct {
	addr string
	ack  wire.HelloAck // the first handshake's answer, for Label
}

// NewTarget returns the server at addr as a replay target.
func NewTarget(addr string) *Target { return &Target{addr: addr} }

// Open implements engine.Target: dial, handshake, and start a pipeline.
func (t *Target) Open(client string, keys []string, opt engine.ReplayOptions, tally func(isRead, hits []bool)) (engine.Session, error) {
	conn, err := t.dial(client, keys)
	if err != nil {
		return nil, err
	}
	depth := opt.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	s := &session{conn: conn, sizer: NewBatchSizer(opt.BatchSize)}
	s.pl = conn.Pipeline(depth, func(_ any, isRead []bool, res wire.Results, rttNs int64) error {
		s.sizer.Observe(rttNs, len(isRead))
		tally(isRead, res.Hits)
		return nil
	})
	return s, nil
}

// Label implements engine.Target from the first session's handshake, or
// from a throwaway one when the replay opened no session.
func (t *Target) Label() (string, int, error) {
	if t.ack.Version == 0 {
		conn, err := t.dial("probe", nil)
		if err != nil {
			return "", 0, err
		}
		conn.Close()
	}
	return policyName(t.ack), t.ack.Capacity, nil
}

func (t *Target) dial(client string, keys []string) (*Conn, error) {
	conn, err := Dial(t.addr)
	if err != nil {
		return nil, err
	}
	ack, err := conn.Hello(client, keys)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if t.ack.Version == 0 {
		t.ack = ack
	}
	return conn, nil
}

// session is one client's pipelined connection.
type session struct {
	conn  *Conn
	pl    *Pipeline
	sizer *BatchSizer
}

func (s *session) Announce(keys []string) error      { return s.conn.Announce(keys) }
func (s *session) Submit(reqs []trace.Request) error { return s.pl.Submit(reqs, nil) }
func (s *session) Drain() error                      { return s.pl.Drain() }
func (s *session) Close() error                      { return s.conn.Close() }
func (s *session) BatchSize() int                    { return s.sizer.Current() }
