package core

import (
	"math/bits"

	"repro/internal/hint"
)

// nilRec marks the absence of a record: an empty list end, the group of a
// record that is not cached, or a failed lookup. freeRec is the group of a
// record on the free list.
const (
	nilRec  int32 = -1
	freeRec int32 = -2
)

// pageEntry records the most recent request for a page: its sequence number
// and hint set (§3.1). Records live in a pageTable slab and link to each
// other by slab index, so they hold no Go pointers and the GC never scans
// them. A record is cached iff grp names a group; otherwise it sits in the
// outqueue or on the table's free list.
type pageEntry struct {
	page       uint64
	seq        uint64
	hint       hint.ID
	prev, next int32
	grp        int32 // index into Cache.groups if cached, nilRec if outqueued, freeRec if free
}

// recList is a doubly-linked list of records threaded through their
// prev/next links. A group and the outqueue are each one recList.
type recList struct {
	head, tail int32 // head is the oldest record
}

func (l *recList) pushBack(recs []pageEntry, r int32) {
	e := &recs[r]
	e.prev = l.tail
	e.next = nilRec
	if l.tail != nilRec {
		recs[l.tail].next = r
	} else {
		l.head = r
	}
	l.tail = r
}

func (l *recList) unlink(recs []pageEntry, r int32) {
	e := &recs[r]
	if e.prev != nilRec {
		recs[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nilRec {
		recs[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nilRec, nilRec
}

// pageTable holds every record the cache keeps, cached and outqueued alike:
// a slab of records and one open-addressing index from page to record. A
// record keeps its index slot while it moves between a group and the
// outqueue, so admitting or evicting a page does no index work; only
// freeing a record or reusing it for another page touches the index.
//
// Both the slab and the index grow lazily; the slab never holds more than
// limit records, and freed records are reused before it grows.
type pageTable struct {
	recs  []pageEntry
	free  int32 // freed records, linked through next
	limit int

	// slots holds record+1 per slot (0 is empty), probed linearly from a
	// page's home slot. len(slots) is a power of two kept at least twice
	// the number of indexed records.
	slots []int32
	shift uint // 64 - log2(len(slots))
	used  int  // indexed records: live ones, i.e. not on the free list
}

func (t *pageTable) init(limit int) {
	t.free = nilRec
	t.limit = limit
}

// home returns a page's first probe slot. It is a multiplicative
// (Fibonacci) hash taking the top bits, deliberately unlike the SplitMix
// hash ShardFor reduces modulo the shard count: every page of one shard
// shares that hash's residue, so slots drawn from it would cluster.
func (t *pageTable) home(page uint64) int {
	return int((page * 0x9e3779b97f4a7c15) >> t.shift)
}

// lookup returns the record of a page, or nilRec.
func (t *pageTable) lookup(page uint64) int32 {
	if t.used == 0 {
		return nilRec
	}
	mask := len(t.slots) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return nilRec
		}
		if t.recs[s-1].page == page {
			return s - 1
		}
	}
}

// add stores a new record for a page that has none and indexes it. The
// record belongs to no list yet.
func (t *pageTable) add(page, seq uint64, h hint.ID) int32 {
	if 2*(t.used+1) > len(t.slots) {
		t.growIndex()
	}
	r := t.free
	if r != nilRec {
		t.free = t.recs[r].next
	} else {
		if len(t.recs) == cap(t.recs) {
			t.growRecs()
		}
		r = int32(len(t.recs))
		t.recs = t.recs[:r+1]
	}
	t.recs[r] = pageEntry{page: page, seq: seq, hint: h, prev: nilRec, next: nilRec, grp: nilRec}
	t.index(r)
	t.used++
	return r
}

// remove unindexes a record that belongs to no list and frees it.
func (t *pageTable) remove(r int32) {
	t.unindex(r)
	t.used--
	t.recs[r] = pageEntry{prev: nilRec, next: t.free, grp: freeRec}
	t.free = r
}

// rekey moves a record to another page, one that has no record.
func (t *pageTable) rekey(r int32, page uint64) {
	t.unindex(r)
	t.recs[r].page = page
	t.index(r)
}

// index places record r in the first free slot of its page's probe run.
func (t *pageTable) index(r int32) {
	mask := len(t.slots) - 1
	i := t.home(t.recs[r].page)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = r + 1
}

// unindex empties record r's slot by backward shift: every later record of
// the probe run that may move into the hole does, so lookups need no
// tombstones.
func (t *pageTable) unindex(r int32) {
	mask := len(t.slots) - 1
	i := t.home(t.recs[r].page)
	for t.slots[i] != r+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The record at j may fill the hole at i iff its home is not
		// cyclically within (i, j].
		if (j-t.home(t.recs[t.slots[j]-1].page))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
}

// growRecs doubles the slab's capacity, up to limit.
func (t *pageTable) growRecs() {
	n := min(max(2*cap(t.recs), 64), t.limit)
	if n <= len(t.recs) {
		panic("core: page table over its record limit")
	}
	recs := make([]pageEntry, len(t.recs), n)
	copy(recs, t.recs)
	t.recs = recs
}

// growIndex doubles the index and re-places every live record.
func (t *pageTable) growIndex() {
	n := max(2*len(t.slots), 16)
	t.slots = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for r := range t.recs {
		if t.recs[r].grp != freeRec {
			t.index(int32(r))
		}
	}
}

// group collects all cached pages whose latest request carried the same
// hint set, in a list ordered by sequence number (appends are always the
// newest request, so order holds by construction). The group sits in the
// priority heap keyed by (pr, head's seq).
type group struct {
	recList
	hint    hint.ID
	heapIdx int32
	pr      float64
}

// appendToGroup places record r, not in any list, at the tail of its hint
// set's group, creating the group (and registering it in the heap) when
// needed. Groups come from the freelist when one is available.
func (c *Cache) appendToGroup(r int32, h hint.ID) {
	for int(h) >= len(c.groupOf) {
		c.groupOf = append(c.groupOf, nilRec)
	}
	gi := c.groupOf[h]
	if gi == nilRec {
		if n := len(c.freeGroups); n > 0 {
			gi = c.freeGroups[n-1]
			c.freeGroups = c.freeGroups[:n-1]
		} else {
			gi = int32(len(c.groups))
			c.groups = append(c.groups, group{})
		}
		c.groups[gi] = group{recList: recList{nilRec, nilRec}, hint: h, pr: c.priority(h)}
		c.groupOf[h] = gi
	}
	g := &c.groups[gi]
	c.pt.recs[r].grp = gi
	wasEmpty := g.head == nilRec
	g.pushBack(c.pt.recs, r)
	c.cached++
	if wasEmpty {
		c.heapPush(gi)
	}
	// Appends never change a non-empty group's head, so no fix is needed.
}

// removeFromGroup unlinks a cached record from its group, fixing the heap
// if the group's head (its key component) changed, and dropping empty
// groups.
func (c *Cache) removeFromGroup(r int32) {
	e := &c.pt.recs[r]
	gi := e.grp
	g := &c.groups[gi]
	wasHead := g.head == r
	g.unlink(c.pt.recs, r)
	e.grp = nilRec
	c.cached--
	if g.head == nilRec {
		c.heapRemove(int(g.heapIdx))
		c.groupOf[g.hint] = nilRec
		c.freeGroups = append(c.freeGroups, gi)
		return
	}
	if wasHead {
		c.heapFix(int(g.heapIdx))
	}
}

// The group heap is a min-heap of group indices keyed by (priority, head
// sequence number): the top group holds the global victim page — the
// oldest page among those with the minimum priority (Figure 4 lines 7–11).
// Its operations are container/heap's, written out over group indices so
// that comparisons make no interface calls and pushes box nothing.

func (c *Cache) heapLess(i, j int) bool {
	a, b := &c.groups[c.heap[i]], &c.groups[c.heap[j]]
	if a.pr != b.pr {
		return a.pr < b.pr
	}
	return c.pt.recs[a.head].seq < c.pt.recs[b.head].seq
}

func (c *Cache) heapSwap(i, j int) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.groups[c.heap[i]].heapIdx = int32(i)
	c.groups[c.heap[j]].heapIdx = int32(j)
}

func (c *Cache) heapInit() {
	n := len(c.heap)
	for i := n/2 - 1; i >= 0; i-- {
		c.heapDown(i, n)
	}
}

func (c *Cache) heapPush(gi int32) {
	c.groups[gi].heapIdx = int32(len(c.heap))
	c.heap = append(c.heap, gi)
	c.heapUp(len(c.heap) - 1)
}

func (c *Cache) heapRemove(i int) {
	n := len(c.heap) - 1
	if n != i {
		c.heapSwap(i, n)
		if !c.heapDown(i, n) {
			c.heapUp(i)
		}
	}
	c.heap = c.heap[:n]
}

func (c *Cache) heapFix(i int) {
	if !c.heapDown(i, len(c.heap)) {
		c.heapUp(i)
	}
}

func (c *Cache) heapUp(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !c.heapLess(j, i) {
			break
		}
		c.heapSwap(i, j)
		j = i
	}
}

func (c *Cache) heapDown(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && c.heapLess(j2, j1) {
			j = j2 // right child
		}
		if !c.heapLess(j, i) {
			break
		}
		c.heapSwap(i, j)
		i = j
	}
	return i > i0
}

// outqueue is the bounded FIFO of most-recent-request records for pages
// that are not cached (§3.1). When full, the least-recently inserted record
// is dropped, deliberately biasing re-reference detection toward short
// re-reference distances — the ones that lead to high caching priority.
type outqueue struct {
	recList
	capacity int
	size     int
}

// putNew records (seq, hint) for a page that has no record, matching
// §3.1's "an entry is placed in the outqueue" for every uncached request.
// When the queue is full the least-recently inserted record is reused for
// the new page.
func (c *Cache) putNew(page, seq uint64, h hint.ID) {
	q := &c.out
	if q.capacity <= 0 {
		return
	}
	if q.size >= q.capacity {
		r := q.head
		q.unlink(c.pt.recs, r)
		c.pt.rekey(r, page)
		e := &c.pt.recs[r]
		e.seq, e.hint = seq, h
		q.pushBack(c.pt.recs, r)
		return
	}
	r := c.pt.add(page, seq, h)
	q.pushBack(c.pt.recs, r)
	q.size++
}

// refresh updates an outqueued record and moves it to the
// most-recently-inserted position.
func (c *Cache) refresh(r int32, seq uint64, h hint.ID) {
	e := &c.pt.recs[r]
	e.seq, e.hint = seq, h
	c.out.unlink(c.pt.recs, r)
	c.out.pushBack(c.pt.recs, r)
}

// putVictim moves a just-evicted record, already unlinked from its group,
// into the outqueue. It returns the record dropped to make room, or nilRec;
// the caller checks it against the incoming page's own outqueue record,
// which can be exactly the one dropped.
func (c *Cache) putVictim(r int32) (dropped int32) {
	q := &c.out
	if q.capacity <= 0 {
		c.pt.remove(r)
		return nilRec
	}
	dropped = nilRec
	if q.size >= q.capacity {
		dropped = q.head
		q.unlink(c.pt.recs, dropped)
		c.pt.remove(dropped)
		q.size--
	}
	q.pushBack(c.pt.recs, r)
	q.size++
	return dropped
}

// OutqueueLen returns the current number of outqueue entries.
func (c *Cache) OutqueueLen() int { return c.out.size }
