package qcache

import (
	"fmt"
	"testing"

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
	if st.Bytes <= 0 || st.Bytes != resultSize(ent) {
		t.Errorf("bytes = %d, want %d", st.Bytes, resultSize(ent))
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
}

// TestBytesChargeMatchesCellWalk pins what an entry costs the budget (the
// benchmark's qcache.bytes_end): 512 per entry, 24 plus the name strings per
// column, 24 per row, every cell's value size and the template — computed
// here by walking every cell, which resultSize no longer does.
func TestBytesChargeMatchesCellWalk(t *testing.T) {
	c := New(1 << 20)
	var want int64
	for i, ent := range []*ResultEntry{
		fakeResult("v", 3),
		fakeResult("a-much-longer-cell-value", 50),
		fakeResult("", 0),
		{Result: &engine.Result{
			Cols: []engine.ColMeta{{Name: "n", Binding: "t", Source: "alice.water"}, {Name: "x"}},
			Rows: []storage.Row{{sqltypes.NewInt(7), sqltypes.NewFloat(1.5)}},
		}, Bytes: int64(sqltypes.NewInt(7).SizeBytes() + sqltypes.NewFloat(1.5).SizeBytes()),
			Meta: &plan.Metadata{Template: "SELECT n, x FROM t"}},
	} {
		c.PutResult(fmt.Sprintf("k%d", i), ent)
		want += 512 + int64(len(ent.Result.Rows))*24
		for _, col := range ent.Result.Cols {
			want += int64(len(col.Name)+len(col.Binding)+len(col.Source)) + 24
		}
		for _, row := range ent.Result.Rows {
			for _, v := range row {
				want += int64(v.SizeBytes())
			}
		}
		if ent.Meta != nil {
			want += int64(len(ent.Meta.Template))
		}
	}
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("bytes = %d, want %d (the per-cell walk)", got, want)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	c := New(1 << 20)
	keys := sameShardKeys(c, 4)
	ent := fakeResult("payload", 10)
	per := resultSize(ent)
	// Budget fits exactly 3 entries of this size; maxEntry must still
	// admit one (maxBytes/8 > per requires maxBytes >= 8*per).
	c.maxBytes = per * 3
	c.maxEntry = per + 1

	for _, k := range keys[:3] {
		c.PutResult(k, fakeResult("payload", 10))
	}
	// Touch keys[0] so keys[1] becomes the coldest.
	if c.GetResult(keys[0]) == nil {
		t.Fatal("warm probe missed")
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
	if st.Entries != 1 || st.Bytes != resultSize(big) {
		t.Errorf("after replace: entries=%d bytes=%d, want 1/%d", st.Entries, st.Bytes, resultSize(big))
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
