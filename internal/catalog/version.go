package catalog

// Dataset content versions fence the result cache and the preview memo.
// Every mutation that can change what a dataset returns — create, view
// save, UNION-append, materialize (plain and in-place), delete — bumps a
// monotonic per-name counter inside the WAL replay constructor that applies
// it, so a recovered catalog reproduces the live counters exactly. Sharing,
// visibility, metadata and DOI edits do not bump: they change who may read,
// not what is read, and access is re-checked on every query and every
// preview read before the cache or the memo is probed.
//
// Counters live in their own map rather than on *Dataset so that delete +
// re-create under the same name continues the counter instead of starting
// a fresh one: a result cached against the deleted generation can never be
// keyed alive again by a successor dataset.

// bumpVersion advances a dataset's content version, from an apply function.
func (s *state) bumpVersion(full string) {
	s.versions = writable(s, s.versions)
	s.versions[full]++
}

// DatasetVersion reports the current content version of a dataset full
// name (0 = never mutated / unknown).
func (c *Catalog) DatasetVersion(full string) uint64 { return c.state.Load().versions[full] }
