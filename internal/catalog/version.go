package catalog

// Dataset content versions underpin the result cache's fencing and the
// preview staleness check. Every mutation that can change what a dataset
// returns — create, view save, UNION-append, materialize (plain and
// in-place), delete — bumps a monotonic per-name counter inside the WAL
// replay constructor that applies it, so a recovered catalog reproduces
// the live counters exactly. Sharing, visibility, metadata and DOI edits
// do not bump: they change who may read, not what is read, and access is
// re-checked on every query before the cache is ever probed.
//
// Counters live in their own map rather than on *Dataset so that delete +
// re-create under the same name continues the counter instead of starting
// a fresh one: a result cached against the deleted generation can never be
// keyed alive again by a successor dataset.

// bumpVersionLocked advances a dataset's content version. Must be called
// with the write lock held, from an apply function.
func (c *Catalog) bumpVersionLocked(full string) {
	c.versions[full]++
}

// DatasetVersion reports the current content version of a dataset full
// name (0 = never mutated / unknown).
func (c *Catalog) DatasetVersion(full string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions[full]
}

// stalePreviewSentinel marks a preview whose dependency closure could not
// be resolved (broken view). The sentinel never matches a live version, so
// the preview is retried on every subsequent mutation and heals itself as
// soon as the definition resolves again.
const stalePreviewSentinel = "~preview:unresolvable"

// previewStamp is the version stamp refreshPreviewLocked records next to a
// preview: the versions of everything the dataset's binding reads, the
// dataset itself included.
func (b *binding) previewStamp() map[string]uint64 {
	if b.broken {
		return map[string]uint64{stalePreviewSentinel: 1}
	}
	m := make(map[string]uint64, len(b.nodes))
	for _, d := range b.versions() {
		m[d.Name] = d.Version
	}
	return m
}

// previewFreshLocked reports whether ds's preview still reflects the
// current versions of everything it was computed from — the same fencing
// the result cache applies, so previews and cached results can never
// disagree about staleness.
func (c *Catalog) previewFreshLocked(ds *Dataset) bool {
	if ds.PreviewVersions == nil {
		return false
	}
	for name, ver := range ds.PreviewVersions {
		if c.versions[name] != ver {
			return false
		}
	}
	return true
}

// refreshStalePreviewsLocked re-renders every live preview whose version
// stamp no longer matches. Called from the apply functions after a version
// bump; one pass suffices because previews depend only on base tables and
// view definitions, never on other previews.
func (c *Catalog) refreshStalePreviewsLocked() {
	for _, ds := range c.datasets {
		if ds.Deleted {
			continue
		}
		if !c.previewFreshLocked(ds) {
			c.refreshPreviewLocked(ds)
		}
	}
}
