// Package qcache is the version-fenced query result cache. SQLShare queries
// are mostly written once (96 % string-distinct, Table 3), but the few that
// repeat — dashboards re-run over slowly-changing datasets (§5.3–5.4) — are
// served without executing as soon as staleness is provably impossible.
// Correctness comes from fencing, not invalidation: every key embeds the
// version vector of the query's transitive dataset dependency closure,
// captured under the same catalog read lock the execution runs under. A
// mutation anywhere upstream bumps a version, the next probe computes a
// different key, and the stale entry simply becomes unreachable until the
// cache reclaims it. There is no invalidation race to lose, because there is
// no invalidation.
//
// Each shard is a segmented LRU (Karedla, Love & Wherry 1994) with a small
// admission window, as in W-TinyLFU (Einziger, Friedman & Manes 2017): a new
// result waits in a probation segment capped at a tenth of the budget, and
// its first hit moves it to a protected segment that takes the rest. A
// result nobody asks for again ages out of probation, so the write-once
// statements that make up most of the workload hold at most the window and
// cannot push out the ones that repeat. A lost entry is only a miss that
// recomputes, so the policy changes which answers are fast, never what any
// answer is.
package qcache

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"sqlshare/internal/engine"
	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
)

// ResultEntry is one cached query outcome: the result set plus the plan
// artifacts the query log wants, so a hit can populate a log entry without
// recompiling. Plan is a trace-stripped copy (traces belong to the
// execution that filled the entry, not to later hits). Entries are shared
// between hits and must never be mutated by callers — the same no-mutation
// invariant predicate-free scans already place on shared table slices.
type ResultEntry struct {
	Result *engine.Result
	// Bytes is the result's payload width (the sum of its cells' value
	// sizes), measured once by the run that filled the entry: the budget
	// charges it and every hit reports it, so neither walks the rows again.
	Bytes  int64
	Plan   *plan.QueryPlan
	Meta   *plan.Metadata
	Digest string
}

// numShards bounds lock contention: keys hash onto independent shards.
const numShards = 16

// windowDiv sizes the probation segment: maxBytes/windowDiv of charged
// bytes. A write-once result can hold no more than that window, at any
// query rate; a repeated statement takes its first hit while still in it.
// At the default 64 MiB the window is 6.4 MiB, about 2,500 point lookups or
// 140 paper_mix results: the benchmark's paper_mix repeats a statement up to
// 143 stores later, which a window of maxBytes/16 misses once.
const windowDiv = 10

// entry is one cached result, linked into exactly one of its shard's two
// segments.
type entry struct {
	key        string
	val        *ResultEntry
	size       int64
	protected  bool // hit at least once since it was stored
	prev, next *entry
}

// lru is an intrusive doubly-linked list of entries with a sentinel: the
// front (root.next) is the most recently used, the back the coldest.
type lru struct{ root entry }

func (l *lru) init() { l.root.next, l.root.prev = &l.root, &l.root }

func (l *lru) pushFront(e *entry) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}

func (l *lru) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// back returns the coldest entry, or nil when the list is empty.
func (l *lru) back() *entry {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

// shard is a segmented LRU: new entries wait in probation, and a hit moves
// an entry to protected, where it lives until the budget needs its space.
type shard struct {
	mu        sync.Mutex
	m         map[string]*entry
	probation lru
	protected lru
}

func (sh *shard) reset() {
	sh.m = map[string]*entry{}
	sh.probation.init()
	sh.protected.init()
}

// list returns the segment e belongs to.
func (sh *shard) list(e *entry) *lru {
	if e.protected {
		return &sh.protected
	}
	return &sh.probation
}

// Cache is a memory-budgeted, sharded, segmented LRU over result sets:
// results that are never asked for again age out of a small probation
// segment and cannot push out the results that are. All methods are safe
// for concurrent use.
type Cache struct {
	shards   [numShards]*shard
	maxBytes int64
	maxEntry int64
	window   int64 // probation cap

	bytes          atomic.Int64
	probationBytes atomic.Int64
	resultHits     atomic.Int64
	resultMisses   atomic.Int64
	evictions      atomic.Int64
	stores         atomic.Int64

	evictionsCtr atomic.Pointer[obs.Counter]
	bytesGauge   atomic.Pointer[obs.Gauge]
}

// New builds a cache holding at most maxBytes of estimated entry size, of
// which at most maxBytes/10 is results that have not been hit yet.
// Entries never expire by age: version fencing alone guarantees result
// correctness.
func New(maxBytes int64) *Cache {
	c := &Cache{maxBytes: maxBytes, maxEntry: maxBytes / 8, window: maxBytes / windowDiv}
	if c.maxEntry <= 0 {
		c.maxEntry = maxBytes
	}
	for i := range c.shards {
		c.shards[i] = &shard{}
		c.shards[i].reset()
	}
	return c
}

// SetMetrics attaches the eviction counter and byte gauge of the platform
// bundle; hit/miss counting stays with the catalog query path. Passing nils
// detaches.
func (c *Cache) SetMetrics(evictions *obs.Counter, bytes *obs.Gauge) {
	c.evictionsCtr.Store(evictions)
	c.bytesGauge.Store(bytes)
	c.publishBytes()
}

func (c *Cache) publishBytes() {
	if g := c.bytesGauge.Load(); g != nil {
		g.Set(c.bytes.Load())
	}
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%numShards]
}

// GetResult probes the result cache. A hit on a probation entry promotes
// it to protected.
func (c *Cache) GetResult(key string) *ResultEntry {
	if ent := c.get(key); ent != nil {
		c.resultHits.Add(1)
		return ent
	}
	c.resultMisses.Add(1)
	return nil
}

// PutResult stores a result entry under its version-fenced key, in
// probation (a replaced entry keeps its segment).
func (c *Cache) PutResult(key string, ent *ResultEntry) {
	c.put(key, ent, entrySize(key, ent))
}

func (c *Cache) get(key string) *ResultEntry {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	sh.list(e).remove(e)
	if !e.protected {
		e.protected = true
		c.probationBytes.Add(-e.size)
	}
	sh.protected.pushFront(e)
	val := e.val // put overwrites an existing entry's val under the lock
	sh.mu.Unlock()
	return val
}

func (c *Cache) put(key string, val *ResultEntry, size int64) {
	if size > c.maxEntry {
		// One oversized result must not wipe the rest of the budget.
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if ok {
		sh.list(e).remove(e)
		if !e.protected {
			c.probationBytes.Add(size - e.size)
		}
		c.bytes.Add(size - e.size)
		e.val, e.size = val, size
	} else {
		e = &entry{key: key, val: val, size: size}
		sh.m[key] = e
		c.bytes.Add(size)
		c.probationBytes.Add(size)
		c.stores.Add(1)
	}
	sh.list(e).pushFront(e)
	// Reclaim this shard's cold entries while a cap is exceeded — never the
	// entry just stored. Other shards converge as their own puts arrive;
	// overshoot is bounded by maxEntry.
	for v := c.victim(sh, e); v != nil; v = c.victim(sh, e) {
		c.evictLocked(sh, v)
	}
	sh.mu.Unlock()
	c.publishBytes()
}

// victim picks the next entry of sh to evict, or nil when no cap is
// exceeded: the probation tail while probation is over its window, then,
// while the total is over budget, the protected tail before the probation
// tail. keep is never picked.
func (c *Cache) victim(sh *shard, keep *entry) *entry {
	pick := func(l *lru) *entry {
		if v := l.back(); v != keep {
			return v
		}
		return nil
	}
	if c.probationBytes.Load() > c.window {
		if v := pick(&sh.probation); v != nil {
			return v
		}
	}
	if c.bytes.Load() > c.maxBytes {
		if v := pick(&sh.protected); v != nil {
			return v
		}
		return pick(&sh.probation)
	}
	return nil
}

// evictLocked unlinks e from sh and counts it toward the eviction metrics.
func (c *Cache) evictLocked(sh *shard, e *entry) {
	sh.list(e).remove(e)
	delete(sh.m, e.key)
	c.bytes.Add(-e.size)
	if !e.protected {
		c.probationBytes.Add(-e.size)
	}
	c.evictions.Add(1)
	if ctr := c.evictionsCtr.Load(); ctr != nil {
		ctr.Inc()
	}
}

// Flush discards every entry of both segments (the DELETE /api/admin/cache
// operation). Counters are cumulative and survive the flush.
func (c *Cache) Flush() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.m {
			c.bytes.Add(-e.size)
			if !e.protected {
				c.probationBytes.Add(-e.size)
			}
		}
		sh.reset()
		sh.mu.Unlock()
	}
	c.publishBytes()
}

// Stats is the cache census served at GET /api/admin/cache.
type Stats struct {
	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	Evictions    int64 `json:"evictions"`
	Stores       int64 `json:"stores"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	// ProbationBytes is the part of Bytes held by entries not hit since
	// they were stored.
	ProbationBytes int64 `json:"probationBytes"`
	MaxBytes       int64 `json:"maxBytes"`
	// HitRate is result hits over result probes (0 when unprobed).
	HitRate float64 `json:"hitRate"`
}

// Stats snapshots the cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	s := Stats{
		ResultHits:     c.resultHits.Load(),
		ResultMisses:   c.resultMisses.Load(),
		Evictions:      c.evictions.Load(),
		Stores:         c.stores.Load(),
		Bytes:          c.bytes.Load(),
		ProbationBytes: c.probationBytes.Load(),
		MaxBytes:       c.maxBytes,
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	if probes := s.ResultHits + s.ResultMisses; probes > 0 {
		s.HitRate = float64(s.ResultHits) / float64(probes)
	}
	return s
}

// Estimated heap costs of what a cached entry keeps alive. The layout sizes
// are those of the amd64 structs; TestChargeCoversRetainedHeap (catalog)
// holds the sum to within [0.67, 1.5]x of what a Flush returns.
const (
	// entryOverhead covers the entry, its map slot, the ResultEntry, the
	// engine.Result, the copied plan.QueryPlan and the plan.Metadata.
	entryOverhead = 352
	colOverhead   = 56  // one engine.ColMeta
	rowOverhead   = 24  // one storage.Row slice header
	nodeOverhead  = 176 // one plan.Node (160) plus its share of a children slice
	strOverhead   = 16  // one string header in a slice or map
	// cellOverhead is what a cell costs beyond its payload width
	// (sqltypes.Value.SizeBytes counts 8 for a number; the cell is 32).
	cellOverhead = 24
)

// entrySize estimates the bytes an entry keeps alive: its key (the full
// canonical SQL and version vector), the result's cells, rows and columns,
// and the plan artifacts a hit hands the query log.
func entrySize(key string, ent *ResultEntry) int64 {
	n := entryOverhead + int64(len(key)+len(ent.Digest)) + ent.Bytes
	if res := ent.Result; res != nil {
		for _, col := range res.Cols {
			n += colOverhead + int64(len(col.Name)+len(col.Binding)+len(col.Source))
		}
		n += int64(len(res.Rows)) * (rowOverhead + cellOverhead*int64(len(res.Cols)))
	}
	if p := ent.Plan; p != nil {
		n += int64(len(p.Query)) + nodeBytes(p.Root) + stringsBytes(p.Tables) +
			mapBytes(len(p.ExprOps), strOverhead+8) + mapBytes(len(p.Columns), strOverhead+24)
		for name, cols := range p.Columns { // Meta.Columns is this map
			n += int64(len(name)) + stringsBytes(cols)
		}
	}
	if m := ent.Meta; m != nil {
		n += int64(len(m.Template)) + stringsBytes(m.Tables) + mapBytes(len(m.OperatorCounts), strOverhead+8)
		if ent.Plan == nil || ent.Plan.ExprOps == nil {
			// Extract shares the plan's census when it has one.
			n += mapBytes(len(m.ExpressionOps), strOverhead+8)
		}
	}
	return n
}

// nodeBytes estimates a plan tree: every node, its object name and its
// rendered filters.
func nodeBytes(nd *plan.Node) int64 {
	if nd == nil {
		return 0
	}
	n := nodeOverhead + int64(len(nd.Object)) + stringsBytes(nd.Filters)
	for _, ch := range nd.Children {
		n += nodeBytes(ch)
	}
	return n
}

func stringsBytes(ss []string) int64 {
	n := int64(strOverhead * len(ss))
	for _, s := range ss {
		n += int64(len(s))
	}
	return n
}

// mapBytes estimates a map of n slots of the given width: a header and one
// group of eight slots per seven entries (its load factor), at least one.
func mapBytes(n int, slot int64) int64 {
	if n == 0 {
		return 0
	}
	groups := int64(n+6) / 7
	return 48 + groups*(8+8*slot)
}
