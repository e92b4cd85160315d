package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hint"
	"repro/internal/trace"
)

// Hint IDs used by the tests; CLIC treats them as opaque.
const (
	hintA hint.ID = 0
	hintB hint.ID = 1
	hintC hint.ID = 2
)

func rd(p uint64, h hint.ID) trace.Request {
	return trace.Request{Page: p, Hint: h, Op: trace.Read}
}
func wr(p uint64, h hint.ID) trace.Request {
	return trace.Request{Page: p, Hint: h, Op: trace.Write}
}

func TestDefaults(t *testing.T) {
	c := New(Config{Capacity: 100})
	cfg := c.Config()
	if cfg.Noutq != 500 {
		t.Errorf("default Noutq = %d, want 5×capacity = 500", cfg.Noutq)
	}
	if cfg.Window != DefaultWindow {
		t.Errorf("default Window = %d", cfg.Window)
	}
	if cfg.R != 1 {
		t.Errorf("default R = %v", cfg.R)
	}
	if c.Name() != "CLIC" || c.Capacity() != 100 {
		t.Errorf("Name/Capacity = %q/%d", c.Name(), c.Capacity())
	}
	none := New(Config{Capacity: 100, Noutq: NoOutqueue})
	if none.Config().Noutq != 0 {
		t.Errorf("NoOutqueue gave Noutq = %d", none.Config().Noutq)
	}
}

// TestWindowStatsExact verifies N(H), Nr(H) and D(H) on a hand-computed
// sequence (§3.1): requests are tagged seq 0,1,2,…; a read re-reference
// credits the *previous* request's hint set at the distance between them.
func TestWindowStatsExact(t *testing.T) {
	c := New(Config{Capacity: 10, Window: 1000})
	c.Access(rd(1, hintA)) // seq 0: N(A)=1
	c.Access(rd(2, hintB)) // seq 1: N(B)=1
	c.Access(rd(1, hintA)) // seq 2: N(A)=2; re-ref credits A, dist 2
	c.Access(wr(2, hintA)) // seq 3: N(A)=3; write: no credit for B
	c.Access(rd(2, hintC)) // seq 4: N(C)=1; re-ref credits A (p2's latest hint), dist 1

	stats := c.WindowStats()
	byHint := map[hint.ID]HintStat{}
	for _, s := range stats {
		byHint[s.Hint] = s
	}
	a := byHint[hintA]
	if a.N != 3 || a.Nr != 2 {
		t.Errorf("A: N=%d Nr=%d, want 3, 2", a.N, a.Nr)
	}
	if math.Abs(a.D-1.5) > 1e-12 {
		t.Errorf("A: D=%v, want 1.5 (distances 2 and 1)", a.D)
	}
	// Pr = (Nr/N)/D = (2/3)/1.5 = 4/9.
	if math.Abs(a.Pr-4.0/9.0) > 1e-12 {
		t.Errorf("A: Pr=%v, want 4/9", a.Pr)
	}
	if b := byHint[hintB]; b.N != 1 || b.Nr != 0 || b.Pr != 0 {
		t.Errorf("B: %+v, want N=1 Nr=0 Pr=0", b)
	}
	if cs := byHint[hintC]; cs.N != 1 || cs.Nr != 0 {
		t.Errorf("C: %+v, want N=1 Nr=0", cs)
	}
}

// TestFigure4Admission walks the replacement policy of Figure 4 end to end:
// a training window establishes priorities Pr(C) > Pr(A) > Pr(B) = 0, then
// admission, victim selection (min priority, min seq) and the
// strictly-greater rule are checked request by request.
func TestFigure4Admission(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 8, Noutq: 10})

	// Training window (seq 0–7).
	c.Access(rd(10, hintA)) // seq 0: cached (cache not full)
	c.Access(rd(11, hintA)) // seq 1: cached
	c.Access(rd(10, hintA)) // seq 2: hit; credit A dist 2
	c.Access(rd(11, hintA)) // seq 3: hit; credit A dist 2
	c.Access(rd(20, hintB)) // seq 4: full, all priorities 0 → bypass
	c.Access(rd(21, hintB)) // seq 5: bypass
	c.Access(rd(40, hintC)) // seq 6: bypass (outqueue records it)
	c.Access(rd(40, hintC)) // seq 7: bypass; outqueue re-ref credits C dist 1
	// Rotation: p̂(A) = (2/4)/2 = 0.25, p̂(B) = 0, p̂(C) = (1/2)/1 = 0.5.

	if c.Windows() != 1 {
		t.Fatalf("windows = %d, want 1", c.Windows())
	}
	pr := c.Priorities()
	if math.Abs(pr[hintA]-0.25) > 1e-12 || math.Abs(pr[hintC]-0.5) > 1e-12 {
		t.Fatalf("priorities after window: %v", pr)
	}

	// seq 8: C (0.5) beats the minimum cached priority (A, 0.25): admit,
	// evicting the minimum-seq page of the A group — page 10 (seq 2).
	if c.Access(rd(50, hintC)) {
		t.Fatal("seq 8 was a miss")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// seq 9: page 11 must still be cached (10 was the victim).
	if !c.Access(rd(11, hintC)) {
		t.Fatal("page 11 was evicted; victim selection chose the wrong page")
	}
	// seq 10: page 10 must be gone; with hint B (priority 0) it is not
	// readmitted over min priority 0.5 (11 and 50 are now both hint C).
	if c.Access(rd(10, hintB)) {
		t.Fatal("page 10 still cached after eviction")
	}
	if c.Len() != 2 {
		t.Fatalf("Len changed: %d", c.Len())
	}
	// seq 11: equal priority must NOT admit (Figure 4 line 12 is strict).
	if c.Access(rd(60, hintC)) {
		t.Fatal("seq 11 was a miss")
	}
	// 11 and 50 should still be cached: verify via hits.
	if !c.Access(rd(50, hintC)) {
		t.Fatal("equal-priority request displaced a cached page")
	}
}

// TestNoReplacementWithoutPriorities: with all priorities zero (before the
// first window completes), a full cache admits nothing new.
func TestNoReplacementWithoutPriorities(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 1000})
	c.Access(rd(1, hintA))
	c.Access(rd(2, hintA))
	c.Access(rd(3, hintA)) // full, equal (zero) priority → bypass
	if !c.Access(rd(1, hintA)) || !c.Access(rd(2, hintA)) {
		t.Error("original pages were displaced")
	}
	if c.Access(rd(3, hintA)) {
		t.Error("page 3 was admitted despite equal priority")
	}
}

// TestRehintChangesPriority: the most recent request determines a cached
// page's priority (Figure 4 lines 23–25).
func TestRehintChangesPriority(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 6, Noutq: 10})
	// Train: A re-references quickly (high priority), B never (zero).
	c.Access(rd(1, hintA))  // seq 0
	c.Access(rd(1, hintA))  // seq 1: credit A dist 1
	c.Access(rd(2, hintA))  // seq 2
	c.Access(rd(2, hintA))  // seq 3: credit A dist 1
	c.Access(rd(9, hintB))  // seq 4
	c.Access(rd(99, hintB)) // seq 5 → rotation: pr(A)=0.75... (Nr=2,N=4,D=1)
	pr := c.Priorities()
	if pr[hintA] <= 0 || pr[hintB] != 0 {
		t.Fatalf("training priorities: %v", pr)
	}
	// Cache holds pages 1 and 2 (both A). Re-request page 1 with hint B:
	// its priority drops to 0, making it the victim for an A request.
	c.Access(rd(1, hintB)) // seq 6: hit, rehint to B
	c.Access(rd(3, hintA)) // seq 7: admits, evicting page 1 (pr 0)
	if c.Access(rd(1, hintA)) {
		t.Error("page 1 survived despite being re-hinted to priority 0")
	}
	// Pages 2 and 3 are the residents now; page 2 was hit at seq 8 above?
	// No: seq 8 accessed page 1 (miss). Verify 2 and 3 are cached.
	if !c.Access(rd(3, hintA)) {
		t.Error("page 3 not cached after admission")
	}
}

func TestOutqueueBound(t *testing.T) {
	c := New(Config{Capacity: 0, Window: 1000, Noutq: 3})
	for p := uint64(1); p <= 10; p++ {
		c.Access(rd(p, hintA))
	}
	if c.OutqueueLen() != 3 {
		t.Errorf("OutqueueLen = %d, want 3", c.OutqueueLen())
	}
	// Oldest entries were evicted: a re-read of page 1 is not detected as a
	// re-reference, but page 10 (recent) is.
	c.Access(rd(1, hintB))  // not detected (page 1 aged out)
	c.Access(rd(10, hintC)) // detected, credits hintA
	stats := map[hint.ID]HintStat{}
	for _, s := range c.WindowStats() {
		stats[s.Hint] = s
	}
	if stats[hintA].Nr != 1 {
		t.Errorf("Nr(A) = %d, want 1 (only the recent page is tracked)", stats[hintA].Nr)
	}
}

func TestOutqueueDisabled(t *testing.T) {
	c := New(Config{Capacity: 0, Window: 1000, Noutq: NoOutqueue})
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	if c.OutqueueLen() != 0 {
		t.Errorf("outqueue not disabled: %d", c.OutqueueLen())
	}
	for _, s := range c.WindowStats() {
		if s.Nr != 0 {
			t.Error("re-reference detected with outqueue disabled and page uncached")
		}
	}
}

// TestEWMA verifies Equation 3 with r = 0.5 across two windows.
func TestEWMA(t *testing.T) {
	c := New(Config{Capacity: 4, Window: 4, R: 0.5})
	// Window 1: A has p̂ = (1/2)/1 = 0.5.
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	c.Access(rd(8, hintB))
	c.Access(rd(9, hintB))
	pr := c.Priorities()
	if math.Abs(pr[hintA]-0.25) > 1e-12 {
		t.Fatalf("after window 1: pr(A) = %v, want 0.5·0.5 = 0.25", pr[hintA])
	}
	// Window 2: A unseen → pr(A) = 0.5·0 + 0.5·0.25 = 0.125.
	for p := uint64(20); p < 24; p++ {
		c.Access(rd(p, hintB))
	}
	pr = c.Priorities()
	if math.Abs(pr[hintA]-0.125) > 1e-12 {
		t.Fatalf("after window 2: pr(A) = %v, want 0.125", pr[hintA])
	}
	if c.Windows() != 2 {
		t.Errorf("windows = %d", c.Windows())
	}
}

// TestRZeroDecaysEverything: with r = 1 (the paper's setting), priorities
// reflect only the last window.
func TestROneForgetsOldWindows(t *testing.T) {
	c := New(Config{Capacity: 4, Window: 4, R: 1})
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	c.Access(rd(8, hintB))
	c.Access(rd(9, hintB))
	if c.Priorities()[hintA] == 0 {
		t.Fatal("pr(A) should be positive after window 1")
	}
	for p := uint64(20); p < 24; p++ {
		c.Access(rd(p, hintB))
	}
	if got := c.Priorities()[hintA]; got != 0 {
		t.Errorf("r=1: pr(A) = %v after a window without A, want 0", got)
	}
}

func TestTopKBoundsTracking(t *testing.T) {
	c := New(Config{Capacity: 8, Window: 10000, TopK: 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		// Hints 0 and 1 dominate; hints 2–9 are rare.
		h := hint.ID(rng.Intn(2))
		if rng.Intn(10) == 0 {
			h = hint.ID(2 + rng.Intn(8))
		}
		c.Access(rd(uint64(rng.Intn(50)), h))
	}
	if c.TrackedHintSets() > 2 {
		t.Errorf("TrackedHintSets = %d, want <= 2", c.TrackedHintSets())
	}
	stats := c.WindowStats()
	if len(stats) > 2 {
		t.Errorf("WindowStats returned %d entries", len(stats))
	}
	// The two frequent hints should be the tracked ones.
	for _, s := range stats {
		if s.Hint > 1 {
			t.Errorf("rare hint %d tracked in place of a frequent one", s.Hint)
		}
	}
}

func TestTopKUntrackedGetZeroPriority(t *testing.T) {
	c := New(Config{Capacity: 8, Window: 12, TopK: 2})
	// hintA and hintB are frequent with quick re-references; hintC appears
	// mid-window with a quick re-reference but is displaced from the k=2
	// summary by the time the window closes, so its priority must be zero
	// (§5: untracked hint sets get Pr = 0).
	c.Access(rd(1, hintA))
	c.Access(rd(1, hintA))
	c.Access(rd(2, hintB))
	c.Access(rd(2, hintB))
	c.Access(rd(5, hintC))
	c.Access(rd(5, hintC))
	c.Access(rd(3, hintA))
	c.Access(rd(3, hintA))
	c.Access(rd(4, hintB))
	c.Access(rd(4, hintB))
	c.Access(rd(6, hintA))
	c.Access(rd(6, hintA))
	pr := c.Priorities()
	if pr[hintA] <= 0 {
		t.Errorf("tracked hint A priority = %v, want > 0", pr[hintA])
	}
	if pr[hintC] != 0 {
		t.Errorf("untracked hint C priority = %v, want 0", pr[hintC])
	}
}

// TestInvariantsQuick property-tests CLIC's structural invariants under
// random request streams: cache and outqueue bounds, group bookkeeping,
// and heap/group consistency.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64, capRaw, topkRaw uint8) bool {
		capacity := int(capRaw % 12)
		topk := int(topkRaw % 4) // 0 = exact mode
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Capacity: capacity, Window: 50, TopK: topk, Noutq: 20})
		for i := 0; i < 1200; i++ {
			op := trace.Read
			if rng.Intn(3) == 0 {
				op = trace.Write
			}
			c.Access(trace.Request{
				Page: uint64(rng.Intn(40)),
				Hint: hint.ID(rng.Intn(6)),
				Op:   op,
			})
			if c.Len() > capacity {
				return false
			}
			if c.OutqueueLen() > 20 {
				return false
			}
			if !c.checkConsistency() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkConsistency validates the internal structures in both directions:
// every cached page is in exactly one seq-ordered group, the groups hold
// the cached count, every group is in the heap once with a correct index, the
// outqueue list matches its size, and the page table holds exactly the
// cached and outqueued records (see pageTable.check).
func (c *Cache) checkConsistency() bool {
	recs := c.pt.recs
	total := 0
	ngroups := 0
	for h, gi := range c.groupOf {
		if gi == nilRec {
			continue
		}
		ngroups++
		g := &c.groups[gi]
		if g.head == nilRec || int(g.hint) != h {
			return false
		}
		n := 0
		prev := nilRec
		for r := g.head; r != nilRec; r = recs[r].next {
			if recs[r].grp != gi || recs[r].prev != prev {
				return false
			}
			if prev != nilRec && recs[r].seq < recs[prev].seq {
				return false // list must be seq-ordered
			}
			prev = r
			n++
		}
		if g.tail != prev {
			return false
		}
		total += n
	}
	if total != c.cached {
		return false
	}
	if len(c.heap) != ngroups {
		return false
	}
	for i, gi := range c.heap {
		if int(c.groups[gi].heapIdx) != i || c.groupOf[c.groups[gi].hint] != gi {
			return false
		}
	}
	// The outqueue list must match its size and hold uncached records.
	n := 0
	prev := nilRec
	for r := c.out.head; r != nilRec; r = recs[r].next {
		if recs[r].grp != nilRec || recs[r].prev != prev {
			return false
		}
		prev = r
		n++
	}
	if n != c.out.size || c.out.tail != prev || n > max(c.out.capacity, 0) {
		return false
	}
	return c.pt.check(c.cached, c.out.size) == nil
}

func TestZeroCapacity(t *testing.T) {
	c := New(Config{Capacity: 0, Window: 10})
	for i := 0; i < 50; i++ {
		if c.Access(rd(uint64(i%3), hintA)) {
			t.Fatal("zero-capacity cache hit")
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	New(Config{Capacity: -1})
}

func TestWriteHitsDoNotCount(t *testing.T) {
	c := New(Config{Capacity: 4, Window: 100})
	c.Access(rd(1, hintA))
	if c.Access(wr(1, hintA)) {
		t.Error("write returned hit")
	}
	if !c.Access(rd(1, hintA)) {
		t.Error("read after write should hit (page stays cached)")
	}
}

func BenchmarkAccessExact(b *testing.B) {
	benchmarkAccess(b, 0)
}

func BenchmarkAccessTopK(b *testing.B) {
	benchmarkAccess(b, 50)
}

// benchmarkAccess draws 8,192 pages uniformly: they all fit in the cache
// plus its outqueue (2,048 + 10,240 records), so no outqueue record is ever
// dropped. See BenchmarkAccessSkewed for the miss path.
func benchmarkAccess(b *testing.B, topk int) {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		reqs[i] = trace.Request{
			Page: uint64(rng.Intn(8192)),
			Hint: hint.ID(rng.Intn(64)),
			Op:   op,
		}
	}
	c := New(Config{Capacity: 2048, Window: 10000, TopK: topk})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(reqs[i%len(reqs)])
	}
}

// BenchmarkAccessSkewed draws Zipf-popular pages from 131,072: its 1M
// requests touch about 85,000 distinct pages, ~7 times the 12,288 records
// the cache (2,048 pages) and its outqueue can hold. So a request for a
// page with no record reuses the oldest outqueue record, and admissions
// and evictions move records between groups and the outqueue. The cache
// is warmed on one pass of the requests before timing.
func BenchmarkAccessSkewed(b *testing.B) {
	const pages = 1 << 17
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 4, pages-1)
	reqs := make([]trace.Request, 1<<20)
	distinct := make(map[uint64]bool)
	for i := range reqs {
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		p := zipf.Uint64()
		distinct[p] = true
		reqs[i] = trace.Request{Page: p, Hint: hint.ID(p % 64), Op: op}
	}
	c := New(Config{Capacity: 2048, Window: 10000, TopK: 50})
	if limit := c.Config().Capacity + c.Config().Noutq; len(distinct) < 5*limit {
		b.Fatalf("%d distinct pages, want several times %d", len(distinct), limit)
	}
	for _, r := range reqs {
		c.Access(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(reqs[i%len(reqs)])
	}
}
