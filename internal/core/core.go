// Package core implements CLIC (CLient-Informed Caching), the paper's
// primary contribution: a generic, adaptive, hint-based replacement policy
// for second-tier storage-server caches.
//
// CLIC assigns each hint set H a caching priority
//
//	Pr(H) = fhit(H) / D(H),    fhit(H) = Nr(H) / N(H)     (Equations 1–2)
//
// where N(H) counts requests with hint set H, Nr(H) counts those requests
// that were followed by a read re-reference of the same page, and D(H) is
// the mean re-reference distance. Statistics are gathered per window of W
// requests and blended across windows with decay r (Equation 3). The cache
// itself plus a bounded outqueue of Noutq recently seen but uncached pages
// provide the "most recent request" records (seq, hint set) needed to
// detect read re-references (§3.1).
//
// Replacement follows Figure 4: a newly requested page is cached only if
// some cached page has strictly lower priority; the victim is the
// minimum-priority page, ties broken by minimum sequence number.
//
// The statistics machinery itself — window accounting, decay blending,
// the priority table, and the optional Space-Saving top-k bound (§5, set
// via Config.TopK) — lives in internal/clicstats behind the Learner
// interface; the cache detects re-references, feeds them to its learner,
// and re-keys its victim heap whenever the learner publishes a new
// priority table (tracked by the learner's epoch). Config.Stats selects
// how a sharded front learns: a private per-shard learner over a scaled
// window (StatsPartitioned, the default) or one shared lock-striped
// learner fed by all shards (StatsGlobal).
//
// Config.Engine selects how a Sharded front is driven. EngineMutex (the
// default) guards each shard with a sync.Mutex and serves any goroutine
// directly. EngineOwner gives each shard a dedicated owner goroutine —
// the only code that ever touches that shard's cache — fed by per-producer
// SPSC frame rings (see owner.go); callers obtain a Producer via
// Sharded.NewProducer and submit batches with AccessBatch. The engines
// are behaviorally bit-identical per producer stream; the owner engine
// trades the universal call-from-anywhere API for a lock-free request
// path. Both engines keep the steady-state request path allocation-free.
// The records of cached and outqueued pages share one flat page table
// (structures.go): a pointer-free slab plus an open-addressing index, so
// a request costs one probe and a page moving between the cache and the
// outqueue keeps its record. The table grows only until it holds
// Capacity+Noutq records; victim groups, Space-Saving counters and window
// statistics are recycled through freelists.
package core

import (
	"fmt"
	"math"

	"repro/internal/clicstats"
	"repro/internal/hint"
	"repro/internal/policy"
	"repro/internal/trace"
)

// StatsMode selects where a cache's hint statistics are learned.
type StatsMode int

const (
	// StatsPartitioned gives every cache (or every shard of a Sharded
	// front) its own private learner: statistics windows, top-k summaries
	// and priority tables are per shard, sized W/N. This is the fully
	// partitioned heuristic and the historical default.
	StatsPartitioned StatsMode = iota
	// StatsGlobal shares one concurrency-safe lock-striped learner across
	// all shards of a Sharded front: priorities are learned from the
	// cache-wide request stream over the full window W while page
	// placement stays hash-partitioned.
	StatsGlobal
	// StatsMerged is StatsGlobal extended for a cluster of cache nodes: the
	// shared learner additionally publishes each closed window's counters
	// for peers and folds peer summaries into its rotations
	// (clicstats.Merged), so priorities approximate the cluster-wide
	// request stream. Meaningful when wired to an exchanger
	// (internal/cluster); unwired it behaves exactly like StatsGlobal.
	StatsMerged
)

// String returns the flag spelling of the mode.
func (m StatsMode) String() string {
	switch m {
	case StatsPartitioned:
		return "partitioned"
	case StatsGlobal:
		return "global"
	case StatsMerged:
		return "merged"
	default:
		return fmt.Sprintf("StatsMode(%d)", int(m))
	}
}

// ParseStatsMode parses the flag spelling of a statistics mode.
func ParseStatsMode(s string) (StatsMode, error) {
	switch s {
	case "partitioned", "":
		return StatsPartitioned, nil
	case "global":
		return StatsGlobal, nil
	case "merged":
		return StatsMerged, nil
	default:
		return 0, fmt.Errorf("core: unknown stats mode %q (want partitioned, global or merged)", s)
	}
}

// Config parameterises a CLIC cache.
type Config struct {
	// Capacity is the cache size in pages.
	Capacity int
	// Noutq is the number of outqueue entries. Zero selects the paper's
	// setting of 5 entries per cache page (§6.1); NoOutqueue disables the
	// outqueue so re-references are detected only for cached pages.
	Noutq int
	// Window is W, the number of requests per statistics window. Zero
	// selects DefaultWindow.
	Window int
	// R is the exponential decay parameter r in (0, 1]; at 1 (the paper's
	// setting) priorities reflect only the most recent window. Zero selects
	// 1.
	R float64
	// TopK bounds hint-set tracking to the k most frequent hint sets using
	// the adapted Space-Saving algorithm (§5). Zero tracks all hint sets
	// exactly.
	TopK int
	// Stats selects partitioned (default) or global statistics learning;
	// see StatsMode. For a plain Cache the modes learn identical
	// priorities (global merely pays for concurrency-safety); the mode
	// matters for Sharded fronts.
	Stats StatsMode
	// Stripes is the lock-stripe count of a global learner; 0 selects
	// clicstats.DefaultStripes. Ignored in partitioned mode.
	Stripes int
	// LocalBias weights a merged learner's node-local window estimate over
	// the cluster-merged one, in [0, 1); see clicstats.Config.LocalBias.
	// Ignored outside StatsMerged.
	LocalBias float64
	// Engine selects the concurrency architecture of a Sharded front built
	// from this configuration: mutex-per-shard (default) or single-owner
	// shard goroutines fed by SPSC frame rings; see EngineMode. A plain
	// Cache ignores it.
	Engine EngineMode
}

// DefaultWindow is the statistics window used when Config.Window is zero.
// The paper uses W = 1e6 on traces of 3M–635M requests; our scaled traces
// are ~10× shorter, so the default window scales likewise.
const DefaultWindow = 100_000

// NoOutqueue, assigned to Config.Noutq, disables the outqueue entirely.
const NoOutqueue = -1

func (cfg Config) withDefaults() Config {
	if cfg.Noutq == 0 {
		cfg.Noutq = 5 * cfg.Capacity
	} else if cfg.Noutq < 0 {
		cfg.Noutq = 0
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.R == 0 {
		cfg.R = 1
	}
	return cfg
}

// learnerConfig maps a resolved cache configuration to its learner's.
func (cfg Config) learnerConfig() clicstats.Config {
	return clicstats.Config{Window: cfg.Window, R: cfg.R, TopK: cfg.TopK, Stripes: cfg.Stripes, LocalBias: cfg.LocalBias}
}

// Cache is a CLIC server cache. It is not safe for concurrent use (wrap it
// in Sharded for that), even when its learner is.
type Cache struct {
	cfg Config
	seq uint64

	// learner owns the hint statistics and the priority table; epoch is
	// the learner epoch the group heap's cached priorities were last
	// synced at.
	learner clicstats.Learner
	epoch   uint64

	// pt holds the record of every cached and every outqueued page: one
	// lookup finds either, and a page moving between the two keeps its
	// record.
	pt pageTable

	// Cached pages, grouped per hint set: groups is the group slab, groupOf
	// maps a hint set to its group or nilRec (hint IDs are dense, so it is
	// indexed by ID), and heap orders the groups by victim key. cached
	// counts the records in groups.
	groups  []group
	groupOf []int32
	heap    []int32
	cached  int

	// freeGroups recycles empty hint-set groups; groups churn whenever a
	// hint set's last page leaves the cache.
	freeGroups []int32

	// Outqueue of recently seen, uncached pages (§3.1).
	out outqueue

	// evictions counts cached pages displaced by a higher-priority admit.
	// Plain (the cache is single-owner); Sharded mirrors it into an atomic.
	evictions uint64
}

var _ policy.Policy = (*Cache)(nil)

// New returns a CLIC cache for the given configuration, with a private
// learner built per Config.Stats.
func New(cfg Config) *Cache {
	if cfg.Capacity < 0 {
		panic("core: negative capacity")
	}
	cfg = cfg.withDefaults()
	var l clicstats.Learner
	switch cfg.Stats {
	case StatsGlobal:
		l = clicstats.NewGlobal(cfg.learnerConfig())
	case StatsMerged:
		l = clicstats.NewMerged(cfg.learnerConfig())
	default:
		l = clicstats.NewPartitioned(cfg.learnerConfig())
	}
	return newCache(cfg, l)
}

// newCache builds a cache around an externally owned learner (Sharded
// shares one learner across shards in global mode). cfg must already have
// defaults applied.
func newCache(cfg Config, l clicstats.Learner) *Cache {
	if cfg.Capacity+cfg.Noutq > math.MaxInt32 {
		panic("core: capacity plus outqueue exceeds 2^31-1 records")
	}
	c := &Cache{
		cfg:     cfg,
		learner: l,
		out:     outqueue{recList: recList{nilRec, nilRec}, capacity: cfg.Noutq},
	}
	c.pt.init(cfg.Capacity + cfg.Noutq)
	return c
}

// Name implements policy.Policy.
func (c *Cache) Name() string { return "CLIC" }

// Len implements policy.Policy.
func (c *Cache) Len() int { return c.cached }

// Capacity implements policy.Policy.
func (c *Cache) Capacity() int { return c.cfg.Capacity }

// Config returns the configuration in effect (with defaults applied).
func (c *Cache) Config() Config { return c.cfg }

// Learner exposes the cache's statistics learner.
func (c *Cache) Learner() clicstats.Learner { return c.learner }

// Evictions returns the number of cached pages evicted to admit a
// higher-priority page.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Access implements policy.Policy, processing one request per Figure 4 and
// feeding the hint statistics of §3.1 to the learner.
func (c *Cache) Access(r trace.Request) bool {
	// A shared learner may have rotated since our last request; re-key the
	// victim heap before any placement decision reads priorities.
	c.syncPriorities()

	s := c.seq
	c.seq++

	// One lookup serves both the statistics and the placement decision
	// below: e is the page's record, cached or outqueued, if it has one.
	e := c.pt.lookup(r.Page)
	cached := e != nilRec && c.pt.recs[e].grp >= 0

	// Statistics: count the arrival, and detect a read re-reference using
	// the most-recent-request record held in the cache or the outqueue.
	c.learner.Arrive(r.Hint)
	if r.Op == trace.Read && e != nilRec {
		rec := &c.pt.recs[e]
		c.learner.Reref(rec.hint, s-rec.seq)
	}

	hit := false
	if cached {
		// Figure 4 lines 23–25: refresh the record; the most recent
		// request determines the page's priority from now on.
		hit = r.Op == trace.Read
		c.rehint(e, s, r.Hint)
	} else {
		c.admit(r.Page, s, r.Hint, e)
	}

	if c.learner.EndRequest() {
		c.syncPriorities()
	}
	return hit
}

// syncPriorities re-keys the group heap against the learner's current
// priority table if the table changed since the last sync (§4: the heap is
// keyed by priority, so a rotation invalidates its order).
func (c *Cache) syncPriorities() {
	e := c.learner.Epoch()
	if e == c.epoch {
		return
	}
	c.epoch = e
	for _, gi := range c.heap {
		g := &c.groups[gi]
		g.pr = c.learner.Priority(g.hint)
	}
	c.heapInit()
}

// admit handles a request for an uncached page (Figure 4 lines 1–22). oe is
// the page's outqueue record, or nilRec (already looked up by Access).
func (c *Cache) admit(page, s uint64, h hint.ID, oe int32) {
	if c.cached < c.cfg.Capacity {
		c.insert(page, s, h, oe)
		return
	}
	if c.cfg.Capacity > 0 && len(c.heap) > 0 {
		top := &c.groups[c.heap[0]]
		if c.priority(h) > top.pr {
			v := top.head // minimum seq within the minimum-priority group
			c.removeFromGroup(v)
			c.evictions++
			// The victim's record enters the outqueue before the new page's
			// record leaves it: if the outqueue is full, the record dropped
			// can be oe itself, in which case the incoming page no longer
			// has a record to promote.
			if c.putVictim(v) == oe {
				oe = nilRec
			}
			c.insert(page, s, h, oe)
			return
		}
	}
	// Do not cache: record the request in the outqueue (lines 19–22).
	if oe != nilRec {
		c.refresh(oe, s, h)
	} else {
		c.putNew(page, s, h)
	}
}

// insert caches a page with the given record. oe is the page's outqueue
// record if it still has one, which moves from the outqueue into a group;
// otherwise the page gets a new record.
func (c *Cache) insert(page, s uint64, h hint.ID, oe int32) {
	r := oe
	if r != nilRec {
		c.out.unlink(c.pt.recs, r)
		c.out.size--
		e := &c.pt.recs[r]
		e.seq, e.hint = s, h
	} else {
		r = c.pt.add(page, s, h)
	}
	c.appendToGroup(r, h)
}

// rehint updates a cached page's record after a new request for it.
func (c *Cache) rehint(r int32, s uint64, h hint.ID) {
	c.removeFromGroup(r)
	e := &c.pt.recs[r]
	e.seq, e.hint = s, h
	c.appendToGroup(r, h)
}

// priority returns Pr(H) in effect during the current window.
func (c *Cache) priority(h hint.ID) float64 { return c.learner.Priority(h) }
