// Package qcache is the version-fenced query result cache. SQLShare queries
// are mostly written once (96 % string-distinct, Table 3), but the few that
// repeat — dashboards re-run over slowly-changing datasets (§5.3–5.4) — are
// served without executing as soon as staleness is provably impossible.
// Correctness comes from fencing, not invalidation: every key embeds the
// version vector of the query's transitive dataset dependency closure,
// captured under the same catalog read lock the execution runs under. A
// mutation anywhere upstream bumps a version, the next probe computes a
// different key, and the stale entry simply becomes unreachable until the
// LRU reclaims it. There is no invalidation race to lose, because there is
// no invalidation.
package qcache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

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

// numShards bounds lock contention: keys hash onto independent LRU shards.
const numShards = 16

type entry struct {
	key  string
	val  *ResultEntry
	size int64
	born time.Time
}

type shard struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

// Cache is a memory-budgeted, sharded LRU over result sets. All methods are
// safe for concurrent use.
type Cache struct {
	shards   [numShards]*shard
	maxBytes int64
	maxEntry int64
	ttl      time.Duration
	// now is the TTL clock; replaced by tests.
	now func() time.Time

	bytes        atomic.Int64
	resultHits   atomic.Int64
	resultMisses atomic.Int64
	evictions    atomic.Int64
	stores       atomic.Int64

	evictionsCtr atomic.Pointer[obs.Counter]
	bytesGauge   atomic.Pointer[obs.Gauge]
}

// New builds a cache holding at most maxBytes of estimated entry size.
// ttl > 0 additionally expires entries by age — a safety valve for
// deployments that want bounded staleness of the fencing metadata itself;
// version fencing alone already guarantees result correctness.
func New(maxBytes int64, ttl time.Duration) *Cache {
	c := &Cache{maxBytes: maxBytes, maxEntry: maxBytes / 8, ttl: ttl, now: time.Now}
	if c.maxEntry <= 0 {
		c.maxEntry = maxBytes
	}
	for i := range c.shards {
		c.shards[i] = &shard{m: map[string]*list.Element{}, lru: list.New()}
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

// GetResult probes the result cache.
func (c *Cache) GetResult(key string) *ResultEntry {
	if ent := c.get(key); ent != nil {
		c.resultHits.Add(1)
		return ent
	}
	c.resultMisses.Add(1)
	return nil
}

// PutResult stores a result entry under its version-fenced key.
func (c *Cache) PutResult(key string, ent *ResultEntry) {
	c.put(key, ent, resultSize(ent))
}

func (c *Cache) get(key string) *ResultEntry {
	sh := c.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	e := el.Value.(*entry)
	if c.ttl > 0 && c.now().Sub(e.born) > c.ttl {
		c.removeLocked(sh, el, true)
		sh.mu.Unlock()
		c.publishBytes()
		return nil
	}
	sh.lru.MoveToFront(el)
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
	if el, ok := sh.m[key]; ok {
		old := el.Value.(*entry)
		c.bytes.Add(size - old.size)
		old.val, old.size, old.born = val, size, c.now()
		sh.lru.MoveToFront(el)
	} else {
		el := sh.lru.PushFront(&entry{key: key, val: val, size: size, born: c.now()})
		sh.m[key] = el
		c.bytes.Add(size)
		c.stores.Add(1)
		// Reclaim cold entries of this shard while the global budget is
		// exceeded — never the entry just inserted. Other shards converge
		// as their own inserts arrive; overshoot is bounded by maxEntry.
		for c.bytes.Load() > c.maxBytes {
			back := sh.lru.Back()
			if back == nil || back == el {
				break
			}
			c.removeLocked(sh, back, true)
		}
	}
	sh.mu.Unlock()
	c.publishBytes()
}

// removeLocked unlinks el from sh; evicted entries count toward the
// eviction metrics (TTL expiries are evictions too).
func (c *Cache) removeLocked(sh *shard, el *list.Element, evicted bool) {
	e := sh.lru.Remove(el).(*entry)
	delete(sh.m, e.key)
	c.bytes.Add(-e.size)
	if evicted {
		c.evictions.Add(1)
		if ctr := c.evictionsCtr.Load(); ctr != nil {
			ctr.Inc()
		}
	}
}

// Flush discards every entry (the DELETE /api/admin/cache operation).
// Counters are cumulative and survive the flush.
func (c *Cache) Flush() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, el := range sh.m {
			c.bytes.Add(-el.Value.(*entry).size)
		}
		sh.m = map[string]*list.Element{}
		sh.lru.Init()
		sh.mu.Unlock()
	}
	c.publishBytes()
}

// Stats is the cache census served at GET /api/admin/cache.
type Stats struct {
	ResultHits   int64   `json:"resultHits"`
	ResultMisses int64   `json:"resultMisses"`
	Evictions    int64   `json:"evictions"`
	Stores       int64   `json:"stores"`
	Entries      int     `json:"entries"`
	Bytes        int64   `json:"bytes"`
	MaxBytes     int64   `json:"maxBytes"`
	TTLSeconds   float64 `json:"ttlSeconds"`
	// HitRate is result hits over result probes (0 when unprobed).
	HitRate float64 `json:"hitRate"`
}

// Stats snapshots the cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	s := Stats{
		ResultHits:   c.resultHits.Load(),
		ResultMisses: c.resultMisses.Load(),
		Evictions:    c.evictions.Load(),
		Stores:       c.stores.Load(),
		Bytes:        c.bytes.Load(),
		MaxBytes:     c.maxBytes,
		TTLSeconds:   c.ttl.Seconds(),
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

// resultSize estimates the bytes a result entry retains: the payload width
// plus per-row and per-column overhead.
func resultSize(ent *ResultEntry) int64 {
	n := 512 + ent.Bytes
	if ent.Result != nil {
		for _, col := range ent.Result.Cols {
			n += int64(len(col.Name)+len(col.Binding)+len(col.Source)) + 24
		}
		n += 24 * int64(len(ent.Result.Rows))
	}
	if ent.Meta != nil {
		n += int64(len(ent.Meta.Template))
	}
	return n
}
