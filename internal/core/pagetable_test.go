package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
)

// check validates the page table in both directions: every index slot
// names a live record whose page's probe run reaches that slot unbroken,
// every live record has exactly one slot, and the slab splits exactly into
// cached, outqueued and free records (wantCached and wantOut are the counts
// the cache's lists hold).
func (t *pageTable) check(wantCached, wantOut int) error {
	n := len(t.recs)
	if n > t.limit || cap(t.recs) > t.limit {
		return fmt.Errorf("slab len %d cap %d over limit %d", n, cap(t.recs), t.limit)
	}
	nfree := 0
	for r := t.free; r != nilRec; r = t.recs[r].next {
		if r < 0 || int(r) >= n || t.recs[r].grp != freeRec || nfree >= n {
			return fmt.Errorf("bad free list at record %d", r)
		}
		nfree++
	}
	cached, out, free := 0, 0, 0
	for r := range t.recs {
		switch g := t.recs[r].grp; {
		case g >= 0:
			cached++
		case g == nilRec:
			out++
		case g == freeRec:
			free++
		default:
			return fmt.Errorf("record %d has group %d", r, g)
		}
	}
	if cached != wantCached || out != wantOut || free != nfree || cached+out+free != n {
		return fmt.Errorf("slab of %d: %d cached (want %d), %d outqueued (want %d), %d free (free list %d)",
			n, cached, wantCached, out, wantOut, free, nfree)
	}
	if t.used != cached+out {
		return fmt.Errorf("used = %d, live records = %d", t.used, cached+out)
	}
	if t.used == 0 && len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	if len(t.slots)&mask != 0 || 2*t.used > len(t.slots) {
		return fmt.Errorf("index of %d slots for %d records", len(t.slots), t.used)
	}
	seen := make([]bool, n)
	indexed := 0
	for i, s := range t.slots {
		if s == 0 {
			continue
		}
		r := s - 1
		if int(r) >= n || t.recs[r].grp == freeRec || seen[r] {
			return fmt.Errorf("slot %d names record %d (free, missing or repeated)", i, r)
		}
		seen[r] = true
		indexed++
		for j := t.home(t.recs[r].page); j != i; j = (j + 1) & mask {
			if t.slots[j] == 0 || t.recs[t.slots[j]-1].page == t.recs[r].page {
				return fmt.Errorf("slot %d (page %d) unreachable from its home", i, t.recs[r].page)
			}
		}
	}
	if indexed != t.used {
		return fmt.Errorf("%d slots for %d live records", indexed, t.used)
	}
	return nil
}

// tailKeys returns pages whose home is the last slot of any index of up to
// 2^bits slots, so a run of them wraps past the end of the slot array.
func tailKeys(count, bits int) []uint64 {
	var keys []uint64
	for p := uint64(1); len(keys) < count; p++ {
		if (p*0x9e3779b97f4a7c15)>>(64-bits) == 1<<bits-1 {
			keys = append(keys, p)
		}
	}
	return keys
}

// drivePageTable runs the operation sequence ops (two bytes per operation:
// kind and key) against a tiny pageTable and a map, failing t on the first
// disagreement. It reports whether a record was ever placed past the end of
// the slot array and whether backward-shift deletion ever moved a record
// across the wrap.
func drivePageTable(t *testing.T, ops []byte) (wrapped, shiftedAcross bool) {
	const limit = 7 // the index never outgrows 16 slots
	keys := append(tailKeys(14, 4), 2, 3, 5, 7, 11, 13)
	var pt pageTable
	pt.init(limit)
	model := map[uint64]int32{}
	present := func(from byte, want bool) (uint64, bool) {
		for i := range keys {
			k := keys[(int(from)+i)%len(keys)]
			if _, ok := model[k]; ok == want {
				return k, true
			}
		}
		return 0, false
	}
	for i := 0; i+1 < len(ops); i += 2 {
		kind, arg := ops[i]%4, ops[i+1]
		key := keys[int(arg)%len(keys)]
		before := append([]int32(nil), pt.slots...)
		switch kind {
		case 0: // get
			want, ok := model[key]
			if !ok {
				want = nilRec
			}
			if got := pt.lookup(key); got != want {
				t.Fatalf("op %d: lookup(%d) = %d, want %d", i/2, key, got, want)
			}
		case 1: // add
			if _, ok := model[key]; ok || len(model) >= limit {
				continue
			}
			r := pt.add(key, uint64(i), hint.ID(arg))
			if e := pt.recs[r]; e.page != key || e.seq != uint64(i) || e.hint != hint.ID(arg) || e.grp != nilRec {
				t.Fatalf("op %d: add(%d) stored %+v", i/2, key, e)
			}
			model[key] = r
		case 2: // remove
			k, ok := present(arg, true)
			if !ok {
				continue
			}
			pt.remove(model[k])
			delete(model, k)
		case 3: // rekey
			from, ok1 := present(arg, true)
			to, ok2 := present(arg/2, false)
			if !ok1 || !ok2 {
				continue
			}
			r := model[from]
			pt.rekey(r, to)
			delete(model, from)
			model[to] = r
		}
		if err := pt.check(0, len(model)); err != nil {
			t.Fatalf("op %d (kind %d): %v", i/2, kind, err)
		}
		for _, k := range keys {
			want, ok := model[k]
			if !ok {
				want = nilRec
			}
			if got := pt.lookup(k); got != want {
				t.Fatalf("op %d (kind %d): lookup(%d) = %d, want %d", i/2, kind, k, got, want)
			}
		}
		mask := len(pt.slots) - 1
		for j, s := range pt.slots {
			if s != 0 && pt.home(pt.recs[s-1].page) > j {
				wrapped = true
			}
		}
		// A record that sat at the start of the array and now sits at its
		// end was shifted backward across the wrap.
		if kind == 2 && len(before) == len(pt.slots) {
			for j, s := range before {
				if s != 0 && j < len(before)/2 && pt.slots[mask] == s {
					shiftedAcross = true
				}
			}
		}
	}
	return wrapped, shiftedAcross
}

// TestPageTableMatchesMap checks pageTable against a map under random
// get/add/remove/rekey sequences on an index of at most 16 slots, with most
// keys homed at its last slot so probe runs wrap and deletions shift
// records back across the wrap.
func TestPageTableMatchesMap(t *testing.T) {
	var wrapped, shifted bool
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2000)
		rng.Read(ops)
		w, s := drivePageTable(t, ops)
		wrapped = wrapped || w
		shifted = shifted || s
	}
	if !wrapped || !shifted {
		t.Errorf("sequences never exercised the wrap: placed past end %v, shifted across %v", wrapped, shifted)
	}
}

// FuzzPageTable runs drivePageTable on arbitrary operation sequences; its
// seed corpus runs under plain go test.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 2, 0, 0, 1, 3, 5, 0, 2})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 2, 0, 2, 3, 3, 1, 3, 9, 2, 2})
	f.Add([]byte{1, 14, 1, 15, 1, 16, 1, 17, 1, 18, 1, 19, 1, 0, 2, 14, 2, 0, 3, 15, 0, 14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		drivePageTable(t, ops)
	})
}

// TestEvictionDropsIncomingRecord pins Figure 4's aliasing case: the cache
// and its outqueue are both full, and the victim's record entering the
// outqueue displaces the oldest outqueue record, which is the incoming
// page's own. The page must end up cached with exactly one record and no
// stale index slot.
func TestEvictionDropsIncomingRecord(t *testing.T) {
	c := New(Config{Capacity: 2, Window: 8, Noutq: 2})
	c.Access(rd(10, hintA)) // seq 0: cached
	c.Access(rd(11, hintA)) // seq 1: cached
	c.Access(rd(10, hintA)) // seq 2: hit; credit A dist 2
	c.Access(rd(11, hintA)) // seq 3: hit; credit A dist 2
	c.Access(rd(40, hintC)) // seq 4: bypass, outqueue [40]
	c.Access(rd(40, hintC)) // seq 5: bypass; credit C dist 1
	c.Access(rd(20, hintB)) // seq 6: outqueue [40 20]
	c.Access(rd(21, hintB)) // seq 7: reuses 40's record, outqueue [20 21]
	// Rotation: Pr(A) = 0.25, Pr(C) = 0.5, Pr(B) = 0.

	oe := c.pt.lookup(20)
	if oe == nilRec || c.out.head != oe || c.OutqueueLen() != 2 || c.Len() != 2 {
		t.Fatalf("setup: page 20's record %d, outqueue head %d, outqueue %d, cached %d",
			oe, c.out.head, c.OutqueueLen(), c.Len())
	}
	// seq 8: C beats A, so page 10 (A, seq 2) is evicted into the full
	// outqueue, which drops its head: page 20's own record.
	if c.Access(rd(20, hintC)) {
		t.Fatal("seq 8 was a miss")
	}
	if c.Evictions() != 1 || c.Len() != 2 || c.OutqueueLen() != 2 {
		t.Fatalf("evictions %d, cached %d, outqueue %d; want 1, 2, 2", c.Evictions(), c.Len(), c.OutqueueLen())
	}
	n := 0
	for r := range c.pt.recs {
		if e := c.pt.recs[r]; e.grp != freeRec && e.page == 20 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("page 20 has %d records, want 1", n)
	}
	r := c.pt.lookup(20)
	if e := c.pt.recs[r]; e.grp < 0 || e.seq != 8 || e.hint != hintC {
		t.Fatalf("page 20's record %+v, want cached at seq 8 with hint C", e)
	}
	for p, want := range map[uint64]bool{10: false, 21: false, 11: true} {
		r := c.pt.lookup(p)
		if r == nilRec || (c.pt.recs[r].grp >= 0) != want {
			t.Errorf("page %d: record %d, want cached=%v", p, r, want)
		}
	}
	if !c.checkConsistency() {
		t.Fatalf("inconsistent after aliasing eviction: %v", c.pt.check(c.cached, c.out.size))
	}
	if !c.Access(rd(20, hintC)) {
		t.Error("page 20 not cached after admission")
	}
}

// TestPageTableBounded streams ten times more distinct pages than
// Capacity+Noutq through a cache and checks the slab never outgrows
// Capacity+Noutq records while the structures stay consistent.
func TestPageTableBounded(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 64, Noutq: 320, Window: 500},
		{Capacity: 64, Noutq: NoOutqueue, Window: 500},
		{Capacity: 0, Noutq: 50, Window: 500},
	} {
		c := New(cfg)
		limit := c.Config().Capacity + c.Config().Noutq
		rng := rand.New(rand.NewSource(3))
		distinct := 10 * max(limit, 1)
		for i := 0; i < 20*distinct; i++ {
			p := uint64(rng.Intn(distinct))
			if rng.Intn(2) == 0 {
				p = uint64(rng.Intn(limit/4 + 1)) // a hot set that earns hits
			}
			op := trace.Read
			if rng.Intn(4) == 0 {
				op = trace.Write
			}
			c.Access(trace.Request{Page: p, Hint: hint.ID(rng.Intn(5)), Op: op})
			if len(c.pt.recs) > limit || cap(c.pt.recs) > limit {
				t.Fatalf("%+v: slab len %d cap %d after %d requests, limit %d",
					cfg, len(c.pt.recs), cap(c.pt.recs), i+1, limit)
			}
			if i%997 == 0 && !c.checkConsistency() {
				t.Fatalf("%+v: inconsistent after %d requests: %v", cfg, i+1, c.pt.check(c.cached, c.out.size))
			}
		}
		if !c.checkConsistency() {
			t.Fatalf("%+v: inconsistent: %v", cfg, c.pt.check(c.cached, c.out.size))
		}
		if c.Len()+c.OutqueueLen() != c.pt.used {
			t.Errorf("%+v: %d cached + %d outqueued != %d indexed", cfg, c.Len(), c.OutqueueLen(), c.pt.used)
		}
	}
}
