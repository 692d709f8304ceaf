package catalog

import "sqlshare/internal/qcache"

// SetQueryCache attaches (or, with nil, detaches) the version-fenced result
// cache. Safe while queries run: the pointer is read once per query,
// and entries filled against a detached cache are simply dropped with it.
func (c *Catalog) SetQueryCache(q *qcache.Cache) {
	c.resultCache.Store(q)
}
