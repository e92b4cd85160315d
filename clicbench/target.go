package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// target is the system under test for one pass: one loopback server, or a
// merging cluster whose coordinator exchanges window summaries while the
// replay runs.
type target struct {
	servers []*server.Server
	harness *cluster.Harness
	ring    *cluster.Ring // the routers' placement, for byte accounting

	stopPump chan struct{}
	pumpDone sync.WaitGroup
}

// exchangeInterval is how often the coordinator delivers pending window
// summaries between cluster nodes during a replay.
const exchangeInterval = time.Millisecond

func startTarget(w *workloadDef) (*target, error) {
	if w.nodes == 0 {
		srv := server.New(server.Config{Cache: w.cacheConfig(), Shards: w.shards})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		return &target{servers: []*server.Server{srv}}, nil
	}
	h, err := cluster.StartHarness(w.harnessConfig())
	if err != nil {
		return nil, err
	}
	t := &target{harness: h, stopPump: make(chan struct{})}
	names := make([]string, w.nodes)
	for i, n := range h.Nodes() {
		t.servers = append(t.servers, h.Server(i))
		names[i] = n.Name
	}
	if t.ring, err = cluster.NewRing(names, 0); err != nil {
		h.Close()
		return nil, err
	}
	t.pumpDone.Add(1)
	go func() {
		defer t.pumpDone.Done()
		tick := time.NewTicker(exchangeInterval)
		defer tick.Stop()
		for {
			select {
			case <-t.stopPump:
				return
			case <-tick.C:
				h.Exchange()
			}
		}
	}()
	return t, nil
}

// close stops the summary pump (delivering what is still queued) and shuts
// every node down; the caches stay readable.
func (t *target) close() error {
	if t.harness == nil {
		return t.servers[0].Close()
	}
	close(t.stopPump)
	t.pumpDone.Wait()
	t.harness.Exchange()
	return t.harness.Close()
}

// windows is the number of completed statistics windows over all nodes.
func (t *target) windows() int {
	n := 0
	for _, s := range t.servers {
		n += s.Cache().Windows()
	}
	return n
}

// resultHandler receives one completed batch, in submission order: its
// read flags and hit verdicts, and the round trip from Submit to result.
type resultHandler func(isRead, hits []bool, rttNs int64) error

// session is one client's connection to the target: a pipelined
// netclient connection, or a router with one connection per node.
type session struct {
	conn   *netclient.Conn
	pl     *netclient.Pipeline
	router *cluster.Router
	rpl    *cluster.RouterPipeline
}

// dial opens a session for the named client, handshaking with an empty
// hint vocabulary (keys are announced as the stream reveals them).
func (t *target) dial(name string, depth int, h resultHandler) (*session, error) {
	s := &session{}
	if t.harness == nil {
		conn, err := netclient.Dial(t.servers[0].Addr().String())
		if err != nil {
			return nil, err
		}
		if _, err := conn.Hello(name, nil); err != nil {
			conn.Close()
			return nil, err
		}
		s.conn = conn
		s.pl = conn.Pipeline(depth, func(_ any, isRead []bool, res wire.Results, rttNs int64) error {
			return h(isRead, res.Hits, rttNs)
		})
		return s, nil
	}
	r, err := cluster.DialRouter(t.harness.Nodes(), 0)
	if err != nil {
		return nil, err
	}
	if err := r.Hello(name, nil); err != nil {
		r.Close()
		return nil, err
	}
	s.router = r
	s.rpl = r.Pipeline(depth, func(_ any, isRead, hits []bool, _ int, rttNs int64) error {
		return h(isRead, hits, rttNs)
	})
	return s, nil
}

func (s *session) announced() int {
	if s.router != nil {
		return s.router.Announced()
	}
	return s.conn.Announced()
}

func (s *session) announce(keys []string) error {
	if s.router != nil {
		return s.router.Announce(keys)
	}
	return s.conn.Announce(keys)
}

func (s *session) submit(reqs []trace.Request) error {
	if s.router != nil {
		return s.rpl.Submit(reqs, nil)
	}
	return s.pl.Submit(reqs, nil)
}

func (s *session) drain() error {
	if s.router != nil {
		return s.rpl.Drain()
	}
	return s.pl.Drain()
}

func (s *session) close() {
	if s.router != nil {
		s.router.Close()
		return
	}
	s.conn.Close()
}

// frameBytes is the on-the-wire size of a frame carrying payload.
func frameBytes(payload []byte) uint64 {
	n := uint64(len(payload))
	for v := n; v >= 0x80; v >>= 7 {
		n++
	}
	return n + 1
}

// frameCounter re-encodes one client's batches to count the bytes they
// put on the wire toward the servers: the batch frame to each node a batch
// touches, with the sequence numbers the pipelines assigned.
type frameCounter struct {
	ring    *cluster.Ring // nil for a single server
	seqs    []uint64      // next sequence number per node connection
	split   [][]trace.Request
	scratch []byte
	bytes   uint64
}

func (t *target) newFrameCounter() *frameCounter {
	return &frameCounter{ring: t.ring, seqs: make([]uint64, len(t.servers)), split: make([][]trace.Request, len(t.servers))}
}

func (f *frameCounter) batch(reqs []trace.Request) {
	if f.ring == nil {
		f.scratch = wire.AppendBatchSeq(f.scratch[:0], f.seqs[0], reqs)
		f.seqs[0]++
		f.bytes += frameBytes(f.scratch)
		return
	}
	for n := range f.split {
		f.split[n] = f.split[n][:0]
	}
	for _, r := range reqs {
		n := f.ring.Owner(r.Page)
		f.split[n] = append(f.split[n], r)
	}
	for n, sub := range f.split {
		if len(sub) > 0 {
			f.scratch = wire.AppendBatchSeq(f.scratch[:0], f.seqs[n], sub)
			f.seqs[n]++
			f.bytes += frameBytes(f.scratch)
		}
	}
}

// announce counts an intern frame of keys to every node connection.
func (f *frameCounter) announce(keys []string) {
	f.scratch = wire.AppendIntern(f.scratch[:0], keys)
	f.bytes += frameBytes(f.scratch) * uint64(len(f.seqs))
}

// counters is a reading of every public counter the benchmark uses, taken
// before and after a pass's timed region.
type counters struct {
	stats    []core.Stats   // per node
	shards   [][]uint64     // per node, per shard: reads
	tracked  int            // hint sets tracked, all nodes
	registry []seriesValues // per node
	service  metrics.HistSnapshot
}

// read takes a counters reading from every node.
func (t *target) read() (*counters, error) {
	c := &counters{}
	for _, s := range t.servers {
		cache := s.Cache()
		c.stats = append(c.stats, cache.Stats())
		reads := make([]uint64, cache.Shards())
		for i := range reads {
			reads[i] = cache.ShardStats(i).Reads
		}
		c.shards = append(c.shards, reads)
		c.tracked += cache.TrackedHintSets()
		reg, err := readRegistry(s.Registry())
		if err != nil {
			return nil, err
		}
		c.registry = append(c.registry, reg)
		var h metrics.HistSnapshot
		s.BatchServiceTime().Snapshot(&h)
		for i := range h.Counts {
			c.service.Counts[i] += h.Counts[i]
		}
		c.service.Count += h.Count
		c.service.Sum += h.Sum
	}
	return c, nil
}

// sum adds one registry series over every node.
func (c *counters) sum(series string) float64 {
	v := 0.0
	for _, r := range c.registry {
		v += r[series]
	}
	return v
}

// seriesValues maps a Prometheus series ("name" or `name{label="v"}`) to
// its value.
type seriesValues map[string]float64

// readRegistry parses a registry's Prometheus text exposition.
func readRegistry(r *metrics.Registry) (seriesValues, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseExposition(buf.String())
}

// parseExposition reads the sample lines of a Prometheus text exposition.
func parseExposition(text string) (seriesValues, error) {
	out := seriesValues{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("registry: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("registry: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
