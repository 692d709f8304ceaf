package qcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// fakeResult builds a result entry whose estimated size scales with rows,
// its payload width measured the way the catalog's fill path measures it.
func fakeResult(cell string, rows int) *ResultEntry {
	res := &engine.Result{Cols: []engine.ColMeta{{Name: "c"}}}
	ent := &ResultEntry{Result: res}
	for i := 0; i < rows; i++ {
		v := sqltypes.NewString(cell)
		res.Rows = append(res.Rows, storage.Row{v})
		ent.Bytes += int64(v.SizeBytes())
	}
	return ent
}

// sameShardKeys returns n distinct keys that all hash onto one shard, so
// LRU-order assertions are deterministic despite sharding.
func sameShardKeys(c *Cache, n int) []string {
	want := c.shardFor("seed")
	keys := []string{"seed"}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(1 << 20)
	ent := fakeResult("v", 3)
	c.PutResult("a", ent)
	if got := c.GetResult("a"); got != ent {
		t.Fatalf("GetResult = %p, want stored entry %p", got, ent)
	}
	if got := c.GetResult("missing"); got != nil {
		t.Fatalf("GetResult(missing) = %v, want nil", got)
	}
	st := c.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.Stores != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes != entrySize("a", ent) {
		t.Errorf("bytes = %d, want %d", st.Bytes, entrySize("a", ent))
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
}

// TestBytesChargeMatchesCellWalk pins what an entry costs the budget (the
// benchmark's qcache.bytes_end): 352 per entry plus its key and digest, 56
// plus the name strings per column, 24 per row, 24 plus the value size per
// cell, and the plan artifacts — the query text, 176 per plan node plus its
// object and filters, 16 plus the length of every table and column name,
// each map's header and groups, and the template. Computed here by walking
// every cell and node, which entrySize does not do for cells.
func TestBytesChargeMatchesCellWalk(t *testing.T) {
	c := New(1 << 20)
	qp := &plan.QueryPlan{
		Query: "SELECT n, x FROM t WHERE n > 1",
		Root: &plan.Node{PhysicalOp: "Filter", Filters: []string{"n > 1"}, Children: []*plan.Node{
			{PhysicalOp: "Table Scan", Object: "[alice].[water]", Children: []*plan.Node{}},
		}},
		Tables:  []string{"alice.water"},
		Columns: map[string][]string{"alice.water": {"n", "x"}},
	}
	meta := &plan.Metadata{
		Template:       "SELECT n, x FROM t WHERE n > ?",
		Tables:         []string{"alice.water"},
		OperatorCounts: map[string]int{"Filter": 1, "Table Scan": 1},
		ExpressionOps:  map[string]int{"GT": 1},
	}
	var want int64
	for i, ent := range []*ResultEntry{
		fakeResult("v", 3),
		fakeResult("a-much-longer-cell-value", 50),
		fakeResult("", 0),
		{Result: &engine.Result{
			Cols: []engine.ColMeta{{Name: "n", Binding: "t", Source: "alice.water"}, {Name: "x"}},
			Rows: []storage.Row{{sqltypes.NewInt(7), sqltypes.NewFloat(1.5)}},
		}, Bytes: int64(sqltypes.NewInt(7).SizeBytes() + sqltypes.NewFloat(1.5).SizeBytes()),
			Plan: qp, Meta: meta, Digest: "0123456789abcdef"},
	} {
		key := fmt.Sprintf("k%d", i)
		c.PutResult(key, ent)
		want += 352 + int64(len(key)+len(ent.Digest)) + int64(len(ent.Result.Rows))*24
		for _, col := range ent.Result.Cols {
			want += int64(len(col.Name)+len(col.Binding)+len(col.Source)) + 56
		}
		for _, row := range ent.Result.Rows {
			for _, v := range row {
				want += 24 + int64(v.SizeBytes())
			}
		}
		if ent.Plan != nil {
			want += int64(len(qp.Query))
			want += 2*176 + int64(len("[alice].[water]")) + 16 + int64(len("n > 1"))
			want += 16 + int64(len("alice.water")) // Tables
			want += 48 + 8 + 8*40                  // Columns: one group of 40-byte slots
			want += int64(len("alice.water")) + 2*16 + 2
		}
		if ent.Meta != nil {
			want += int64(len(meta.Template)) + 16 + int64(len("alice.water"))
			want += 2 * (48 + 8 + 8*24) // OperatorCounts, and ExpressionOps (the plan has no census)
		}
	}
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("bytes = %d, want %d (the per-cell walk)", got, want)
	}
}

// TestLRUEvictionUnderBudget: past the budget, the coldest entry that was
// never hit goes first. The window is set explicitly, like maxEntry: at
// maxBytes/10 it would hold less than one entry. keys[0] takes its hit
// before the window fills; touched after the third put, it would be the
// probation tail when the window overflows, or, with a window of three, the
// protected tail when the total does.
func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(1 << 20)
	keys := sameShardKeys(c, 4)
	ent := fakeResult("payload", 10)
	var per int64 // the largest entry; keys differ in length by a byte or two
	for _, k := range keys {
		per = max(per, entrySize(k, ent))
	}
	// Budget fits 3 entries of this size; maxEntry must still admit one
	// (maxBytes/8 > per requires maxBytes >= 8*per).
	c.maxBytes = per * 3
	c.maxEntry = per + 1
	c.window = per * 2

	c.PutResult(keys[0], fakeResult("payload", 10))
	// Touch keys[0] so keys[1] becomes the coldest never-hit entry.
	if c.GetResult(keys[0]) == nil {
		t.Fatal("warm probe missed")
	}
	for _, k := range keys[1:3] {
		c.PutResult(k, fakeResult("payload", 10))
	}
	c.PutResult(keys[3], fakeResult("payload", 10))

	if c.GetResult(keys[1]) != nil {
		t.Error("coldest entry survived past budget")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if c.GetResult(k) == nil {
			t.Errorf("entry %q evicted although it was not coldest", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > c.maxBytes {
		t.Errorf("bytes %d exceed budget %d after eviction", st.Bytes, c.maxBytes)
	}
}

func TestReplaceSameKeyAdjustsBytes(t *testing.T) {
	c := New(1 << 20)
	small, big := fakeResult("x", 1), fakeResult("a-much-longer-cell-value", 50)
	c.PutResult("k", small)
	c.PutResult("k", big)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != entrySize("k", big) {
		t.Errorf("after replace: entries=%d bytes=%d, want 1/%d", st.Entries, st.Bytes, entrySize("k", big))
	}
	if got := c.GetResult("k"); got != big {
		t.Error("replace did not take effect")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(1024) // maxEntry = 128
	c.PutResult("huge", fakeResult("0123456789", 100))
	if c.GetResult("huge") != nil {
		t.Error("oversized entry was stored")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Stores != 0 {
		t.Errorf("stats after rejected store = %+v", st)
	}
}

func TestFlushKeepsCounters(t *testing.T) {
	c := New(1 << 20)
	c.PutResult("a", fakeResult("v", 1))
	c.GetResult("a")
	c.GetResult("b")
	c.Flush()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("flush left residue: %+v", st)
	}
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.Stores != 1 {
		t.Errorf("flush reset cumulative counters: %+v", st)
	}
	if c.GetResult("a") != nil {
		t.Error("entry survived flush")
	}
}

// checkSegments verifies the oracle-free invariants of the segmented LRU:
// the byte counters equal the sums over the lists, every key is on exactly
// one list, and an entry's flag names the list it is on.
func checkSegments(c *Cache) error {
	var total, probation int64
	for i, sh := range c.shards {
		sh.mu.Lock()
		seen := map[string]bool{}
		for _, l := range []*lru{&sh.probation, &sh.protected} {
			for e := l.root.next; e != &l.root; e = e.next {
				if seen[e.key] {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d: key %q on two lists", i, e.key)
				}
				seen[e.key] = true
				if sh.m[e.key] != e {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d: listed key %q is not the map's entry", i, e.key)
				}
				if e.protected != (l == &sh.protected) {
					sh.mu.Unlock()
					return fmt.Errorf("shard %d: key %q protected=%v on the other list", i, e.key, e.protected)
				}
				total += e.size
				if !e.protected {
					probation += e.size
				}
			}
		}
		n := len(sh.m)
		sh.mu.Unlock()
		if len(seen) != n {
			return fmt.Errorf("shard %d: %d keys listed, %d in the map", i, len(seen), n)
		}
	}
	if got := c.bytes.Load(); got != total {
		return fmt.Errorf("bytes = %d, entries sum to %d", got, total)
	}
	if got := c.probationBytes.Load(); got != probation {
		return fmt.Errorf("probation bytes = %d, probation entries sum to %d", got, probation)
	}
	return nil
}

// TestOneOffsCannotEvictReusedEntries: entries that were hit survive ten
// budgets' worth of distinct statements stored once, and those one-offs
// never hold more than the window.
func TestOneOffsCannotEvictReusedEntries(t *testing.T) {
	c := New(1 << 20)
	var reused []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("dashboard-%d", i)
		c.PutResult(k, fakeResult("payload", 10))
		if c.GetResult(k) == nil {
			t.Fatalf("%s missed right after its put", k)
		}
		reused = append(reused, k)
	}
	var flooded int64
	for i := 0; flooded < 10*c.maxBytes; i++ {
		ent := fakeResult(fmt.Sprintf("one-off-%d", i), 1+i%20)
		k := fmt.Sprintf("one-off-%d", i)
		c.PutResult(k, ent)
		flooded += entrySize(k, ent)
		st := c.Stats()
		if st.ProbationBytes > c.window+c.maxEntry {
			t.Fatalf("put %d: probation holds %d bytes, window %d + maxEntry %d", i, st.ProbationBytes, c.window, c.maxEntry)
		}
		if st.Bytes > c.maxBytes+c.maxEntry {
			t.Fatalf("put %d: cache holds %d bytes, budget %d + maxEntry %d", i, st.Bytes, c.maxBytes, c.maxEntry)
		}
	}
	for _, k := range reused {
		if c.GetResult(k) == nil {
			t.Errorf("%s was evicted by one-off puts", k)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("the flood evicted nothing")
	}
	if err := checkSegments(c); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionRacesEvictionAndFlush runs hits that promote against puts
// that evict and against flushes (under -race in `make race`), then checks
// the counters once every goroutine has stopped.
func TestPromotionRacesEvictionAndFlush(t *testing.T) {
	c := New(64 << 10)
	const (
		workers = 4
		ops     = 2000
	)
	var wg sync.WaitGroup
	var gets atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func(w int) { // puts: shared keys and one-offs
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("shared-%d", i%32)
				if i%2 == 1 {
					k = fmt.Sprintf("one-off-%d-%d", w, i)
				}
				c.PutResult(k, fakeResult("payload", 1+i%16))
			}
		}(w)
		go func() { // hits that promote
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.GetResult(fmt.Sprintf("shared-%d", i%32))
				gets.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c.Flush()
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if err := checkSegments(c); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResultHits+st.ResultMisses != gets.Load() {
		t.Errorf("hits %d + misses %d != %d probes", st.ResultHits, st.ResultMisses, gets.Load())
	}
	if st.Stores < int64(st.Entries)+st.Evictions {
		t.Errorf("stores %d < entries %d + evictions %d", st.Stores, st.Entries, st.Evictions)
	}
	if st.Bytes > c.maxBytes+c.maxEntry || st.ProbationBytes > st.Bytes {
		t.Errorf("bytes %d (probation %d) over budget %d + maxEntry %d", st.Bytes, st.ProbationBytes, c.maxBytes, c.maxEntry)
	}
	c.Flush()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.ProbationBytes != 0 {
		t.Errorf("after the last flush: %+v", st)
	}
}

// FuzzCacheOps drives random put/get/Flush sequences over a few keys and
// sizes and checks the segment invariants after every operation, and that
// an entry is protected exactly when it was hit after it was stored. The
// first byte sets the window.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 1, 0, 2, 1, 2, 7, 0})
	f.Add([]byte{0, 0, 30, 8, 30, 16, 30, 1, 0, 24, 5})
	f.Add([]byte{255, 0, 0, 1, 0, 0, 9, 2, 9, 1, 9, 0, 17, 0, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 401 { // 200 operations are plenty over six keys
			return
		}
		c := New(1 << 14)
		c.window = int64(data[0]) * 32
		keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
		hit := map[string]bool{} // hit since stored, for keys in the cache
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k := keys[int(arg)%len(keys)]
			switch {
			case op%8 == 7:
				c.Flush()
			case op%2 == 0:
				_, had := hit[k]
				c.PutResult(k, fakeResult("cell", int(arg)/len(keys)%32))
				if !had {
					hit[k] = false
				}
			default:
				if c.GetResult(k) != nil {
					hit[k] = true
				}
			}
			if err := checkSegments(c); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			for _, key := range keys {
				wasHit, ok := hit[key]
				if !ok {
					continue
				}
				sh := c.shardFor(key)
				sh.mu.Lock()
				e := sh.m[key]
				sh.mu.Unlock()
				switch {
				case e == nil:
					delete(hit, key)
				case e.protected != wasHit:
					t.Fatalf("op %d: %s protected=%v, hit since stored=%v", i/2, key, e.protected, wasHit)
				}
			}
		}
	})
}
