// Pipelined wire-path tests: equivalence of every in-flight depth with
// the in-process engine, protocol edge cases against hand-rolled peers
// (reordered results, v2 fallback, window capping), a concurrency stress
// for -race, and the end-to-end zero-allocation pin for the pipelined
// client and server serve loops.
package netclient_test

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestPipelineDepthEquivalence is the golden test for pipelining: a
// single-client replay produces exactly the same reads and hits at any
// in-flight depth, and exactly matches the in-process replay — depth
// changes when results arrive, never what the server computes.
func TestPipelineDepthEquivalence(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000}
	const shards = 4
	want := inProcess(t, core.NewSharded(cfg, shards), testTrace)

	for _, depth := range []int{1, 4, 32} {
		srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
		got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), testTrace.Source(),
			engine.ReplayOptions{Depth: depth, BatchSize: 256})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
			t.Errorf("depth %d: %d/%d hits/reads, in-process %d/%d",
				depth, got.ReadHits, got.Reads, want.ReadHits, want.Reads)
		}
		if got.ReadHits == 0 {
			t.Errorf("depth %d: no hits at all; test is vacuous", depth)
		}
		st := srv.Cache().Stats()
		if st.Reads != got.Reads || st.ReadHits != got.ReadHits {
			t.Errorf("depth %d: server stats (%d/%d) disagree with client (%d/%d)",
				depth, st.ReadHits, st.Reads, got.ReadHits, got.Reads)
		}
	}
}

// TestPipelineOwnerDepthEquivalence runs the same invariant through the
// owner-shard engine, whose producers are fed directly by the server's
// streaming decoder.
func TestPipelineOwnerDepthEquivalence(t *testing.T) {
	cfg := core.Config{Capacity: 3000, Window: 5000, Engine: core.EngineOwner}
	const shards = 4

	srv1 := startServer(t, server.Config{Cache: cfg, Shards: shards})
	want, err := engine.Replay(netclient.NewTarget(srv1.Addr().String()), testTrace.Source(),
		engine.ReplayOptions{Depth: 1, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{4, 32} {
		srv := startServer(t, server.Config{Cache: cfg, Shards: shards})
		got, err := engine.Replay(netclient.NewTarget(srv.Addr().String()), testTrace.Source(),
			engine.ReplayOptions{Depth: depth, BatchSize: 256})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if got.Reads != want.Reads || got.ReadHits != want.ReadHits {
			t.Errorf("depth %d: %d/%d hits/reads, depth-1 %d/%d",
				depth, got.ReadHits, got.Reads, want.ReadHits, want.Reads)
		}
	}
	if want.ReadHits == 0 {
		t.Error("no hits at all; test is vacuous")
	}
}

// fakeServer runs handler on one accepted connection, for protocol tests
// that need server behaviour a real server would never produce.
func fakeServer(t *testing.T, handler func(br *bufio.Reader, bw *bufio.Writer) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		if err := handler(br, bw); err != nil {
			t.Log("fake server:", err)
		}
		bw.Flush()
	}()
	return ln.Addr().String()
}

// ackHello consumes the client Hello and answers with the given ack.
func ackHello(br *bufio.Reader, bw *bufio.Writer, ack wire.HelloAck) error {
	p, err := wire.ReadFrame(br, nil)
	if err != nil {
		return err
	}
	if _, err := wire.DecodeHello(p); err != nil {
		return err
	}
	if err := wire.WriteFrame(bw, wire.AppendHelloAck(nil, ack)); err != nil {
		return err
	}
	return bw.Flush()
}

// TestPipelineReorderedResults checks the client detects a server that
// answers out of sequence order and fails with a readable protocol error
// instead of silently mis-attributing hits.
func TestPipelineReorderedResults(t *testing.T) {
	addr := fakeServer(t, func(br *bufio.Reader, bw *bufio.Writer) error {
		if err := ackHello(br, bw, wire.HelloAck{Version: wire.Version, Shards: 1, Capacity: 100, Window: 8}); err != nil {
			return err
		}
		// Read two tagged batches, answer them swapped.
		var seqs []uint64
		var sizes []int
		for i := 0; i < 2; i++ {
			p, err := wire.ReadFrame(br, nil)
			if err != nil {
				return err
			}
			seq, reqs, err := wire.DecodeBatchSeq(p, nil)
			if err != nil {
				return err
			}
			seqs = append(seqs, seq)
			sizes = append(sizes, len(reqs))
		}
		for i := []int{1, 0}[0]; i >= 0; i-- {
			res := wire.Results{Hits: make([]bool, sizes[i])}
			if err := wire.WriteFrame(bw, wire.AppendResultsSeq(nil, seqs[i], res)); err != nil {
				return err
			}
		}
		return bw.Flush()
	})

	conn, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("reorder", nil); err != nil {
		t.Fatal(err)
	}
	pl := conn.Pipeline(4, func(any, []bool, wire.Results, int64) error { return nil })
	for i := 0; i < 2; i++ {
		if err := pl.Submit([]trace.Request{{Page: uint64(i)}, {Page: uint64(i + 10)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	err = pl.Drain()
	if err == nil {
		t.Fatal("client accepted out-of-order results")
	}
	if !strings.Contains(err.Error(), "sequence") {
		t.Errorf("error %q does not mention the sequence mismatch", err)
	}
}

// TestPipelineV2Fallback checks a v3 client degrades to lock-step
// untagged frames against a v2 server: depth forced to 1, plain Batch on
// the wire, plain Results accepted.
func TestPipelineV2Fallback(t *testing.T) {
	const batches = 3
	addr := fakeServer(t, func(br *bufio.Reader, bw *bufio.Writer) error {
		if err := ackHello(br, bw, wire.HelloAck{Version: wire.PipelineVersion - 1, Shards: 1, Capacity: 100}); err != nil {
			return err
		}
		var scratch []byte
		for i := 0; i < batches; i++ {
			p, err := wire.ReadFrame(br, scratch)
			if err != nil {
				return err
			}
			scratch = p
			if typ, _ := wire.PayloadType(p); typ != wire.TypeBatch {
				return wire.WriteFrame(bw, wire.AppendError(nil, "v2 server got a tagged frame"))
			}
			reqs, err := wire.DecodeBatch(p, nil)
			if err != nil {
				return err
			}
			hits := make([]bool, len(reqs))
			for j := range hits {
				hits[j] = true
			}
			if err := wire.WriteFrame(bw, wire.AppendResults(nil, wire.Results{Hits: hits})); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return nil
	})

	conn, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("v2", nil); err != nil {
		t.Fatal(err)
	}
	if v := conn.Version(); v != wire.PipelineVersion-1 {
		t.Fatalf("negotiated version %d, want %d", v, wire.PipelineVersion-1)
	}
	var delivered, hits int
	pl := conn.Pipeline(8, func(_ any, isRead []bool, res wire.Results, _ int64) error {
		delivered++
		for _, h := range res.Hits {
			if h {
				hits++
			}
		}
		return nil
	})
	if pl.Depth() != 1 {
		t.Fatalf("v2 fallback depth = %d, want 1", pl.Depth())
	}
	for i := 0; i < batches; i++ {
		if err := pl.Submit([]trace.Request{{Page: 1}, {Page: 2, Op: trace.Write}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered != batches || hits != batches*2 {
		t.Errorf("delivered %d batches with %d hits, want %d and %d", delivered, hits, batches, batches*2)
	}
}

// TestPipelineWindowCap checks the server's advertised window caps the
// client's requested depth, against both a fake peer and the real server.
func TestPipelineWindowCap(t *testing.T) {
	addr := fakeServer(t, func(br *bufio.Reader, bw *bufio.Writer) error {
		return ackHello(br, bw, wire.HelloAck{Version: wire.Version, Shards: 1, Capacity: 100, Window: 2})
	})
	conn, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("cap", nil); err != nil {
		t.Fatal(err)
	}
	if d := conn.Pipeline(16, nil).Depth(); d != 2 {
		t.Errorf("depth = %d, want the advertised window 2", d)
	}

	srv := startServer(t, server.Config{Cache: core.Config{Capacity: 100}, Shards: 1, MaxInflight: 4})
	conn2, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ack, err := conn2.Hello("cap2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Window != 4 {
		t.Errorf("server advertised window %d, want 4", ack.Window)
	}
	if d := conn2.Pipeline(64, nil).Depth(); d != 4 {
		t.Errorf("depth = %d, want the server window 4", d)
	}
}

// TestPipelineRaceStress drives more concurrent pipelined connections
// than the server has shards, checking total accounting stays exact.
// Run under -race in CI, this is the data-race probe for the split
// reader/writer connection handler and the pooled result slots.
func TestPipelineRaceStress(t *testing.T) {
	const conns = 8
	const batches = 60
	const batchLen = 50
	cfg := core.Config{Capacity: 2000, Window: 4000, Engine: core.EngineOwner}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2, MaxInflight: 8})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var reads, hits uint64
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := netclient.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := conn.Hello("stress", []string{"w=stress"}); err != nil {
				errs <- err
				return
			}
			var myReads, myHits uint64
			pl := conn.Pipeline(6, func(_ any, isRead []bool, res wire.Results, _ int64) error {
				for i, rd := range isRead {
					if rd {
						myReads++
						if res.Hits[i] {
							myHits++
						}
					}
				}
				return nil
			})
			reqs := make([]trace.Request, batchLen)
			for b := 0; b < batches; b++ {
				for i := range reqs {
					op := trace.Read
					if (b+i)%9 == 0 {
						op = trace.Write
					}
					// Overlapping page ranges across connections force
					// shard contention and real hits.
					reqs[i] = trace.Request{Page: uint64((c*31 + b*batchLen + i) % 1500), Op: op}
				}
				if err := pl.Submit(reqs, nil); err != nil {
					errs <- err
					return
				}
			}
			if err := pl.Drain(); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			reads += myReads
			hits += myHits
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Cache().Stats()
	if st.Reads != reads || st.ReadHits != hits {
		t.Errorf("server stats (%d/%d) disagree with client accounting (%d/%d)",
			st.ReadHits, st.Reads, hits, reads)
	}
	if hits == 0 {
		t.Error("no hits at all; stress is vacuous")
	}
	if st.Requests != uint64(conns*batches*batchLen) {
		t.Errorf("server Requests = %d, want %d", st.Requests, conns*batches*batchLen)
	}
}

// TestPipelineSteadyStateAllocs pins the end-to-end zero-allocation
// contract of the pipelined path. AllocsPerRun counts process-wide
// mallocs, so one pin covers both sides at once: the client's
// Submit/complete cycle and the server's reader-decode → producer →
// writer-encode loop, over a real TCP connection. The window stays full
// (submit one, complete one) — the steady state of a saturating replay.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	cfg := core.Config{Capacity: 512, Window: 1 << 30, TopK: 64, Engine: core.EngineOwner}
	srv := startServer(t, server.Config{Cache: cfg, Shards: 2, MaxInflight: 8})
	conn, err := netclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("alloc", []string{"w=alloc"}); err != nil {
		t.Fatal(err)
	}
	pl := conn.Pipeline(4, func(any, []bool, wire.Results, int64) error { return nil })

	reqs := make([]trace.Request, wire.DefaultBatch)
	off := 0
	submit := func() {
		for i := range reqs {
			op := trace.Read
			if i%7 == 0 {
				op = trace.Write
			}
			reqs[i] = trace.Request{Page: uint64((off + i*13) % 4096), Op: op}
		}
		off++
		if err := pl.Submit(reqs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: fill the window and run enough cycles that every pooled
	// buffer on both sides (client pbatches, server slots, producer
	// frames, bufio, cache freelists) has reached steady-state size.
	for i := 0; i < 300; i++ {
		submit()
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		submit() // refill the window so each measured Submit completes one
	}
	if avg := testing.AllocsPerRun(200, submit); avg > 0.02 {
		t.Errorf("pipelined submit/complete cycle allocates %v allocs per batch (client+server), want 0", avg)
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSizer pins the adaptive-sizing rules: a fixed size never
// moves; flat per-request latency grows the size to wire.DefaultBatch;
// degraded latency holds it.
func TestBatchSizer(t *testing.T) {
	fixed := netclient.NewBatchSizer(128)
	for i := 0; i < 100; i++ {
		fixed.Observe(1000, fixed.Current())
	}
	if fixed.Current() != 128 {
		t.Errorf("fixed sizer moved to %d", fixed.Current())
	}

	flat := netclient.NewBatchSizer(0)
	if flat.Current() >= wire.DefaultBatch {
		t.Fatalf("adaptive sizer starts at %d, want below the %d cap", flat.Current(), wire.DefaultBatch)
	}
	// Early fill-phase batches with unrealistically low RTT must not
	// poison the baseline (they are the settle window).
	for i := 0; i < 4; i++ {
		flat.Observe(10, flat.Current())
	}
	for i := 0; i < 200; i++ {
		n := flat.Current()
		flat.Observe(int64(n)*1000, n) // flat 1000ns per request
	}
	if flat.Current() != wire.DefaultBatch {
		t.Errorf("flat latency grew the size to %d, want %d", flat.Current(), wire.DefaultBatch)
	}

	degraded := netclient.NewBatchSizer(0)
	start := degraded.Current()
	for i := 0; i < 20; i++ { // establish a baseline at the start size
		degraded.Observe(int64(start)*1000, start)
	}
	grown := degraded.Current()
	for i := 0; i < 200; i++ { // then per-request latency triples
		n := degraded.Current()
		degraded.Observe(int64(n)*3000, n)
	}
	if degraded.Current() > grown {
		t.Errorf("sizer kept growing (%d -> %d) through tripled latency", grown, degraded.Current())
	}
}
