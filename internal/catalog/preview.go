package catalog

import (
	"slices"

	"sqlshare/internal/engine"
	"sqlshare/internal/qcache"
)

// Preview is the first PreviewRows rows of a dataset rendered as text: the
// third part of §3.2's (sql, metadata, preview), served without re-running
// the query while nothing it reads has changed (§3.3). Its slices are shared
// with the memo: read, never modify.
type Preview struct {
	Cols []string
	Rows [][]string
}

// stampedPreview is a memoized preview and the version vector it was
// rendered at. A write other than a delete never touches the memo: a version
// bump is what makes an entry unreachable, and the next read renders over it.
type stampedPreview struct {
	vv qcache.VersionVector
	pv Preview
}

// Preview returns the preview of a dataset visible to user, authorized as
// Dataset authorizes. It is rendered for the dataset's owner (R4): whoever
// reads it sees the rows the owner's definition returns, and a definition
// that is broken, or that its owner may not read, previews as empty. The
// rendering happens on the first read after a version its binding reads has
// moved, on the state the read loaded; it is kept only when it succeeded and
// is deterministic — the result cache's rule — so a preview over GETDATE()
// renders on every read.
func (c *Catalog) Preview(user, name string) (Preview, error) {
	s := c.state.Load()
	ds, err := s.lookup(user, name)
	if err != nil {
		return Preview{}, err
	}
	b := s.bindDataset(user, ds)
	if err := b.authorize(); err != nil {
		return Preview{}, err
	}
	if user != ds.Owner {
		b = s.bindDataset(ds.Owner, ds)
	}
	if b.authorize() != nil {
		return Preview{}, nil
	}
	full, vv := ds.FullName(), b.versions()
	c.previewMu.Lock()
	e, ok := c.previews[full]
	c.previewMu.Unlock()
	if ok && slices.Equal(e.vv, vv) {
		return e.pv, nil
	}
	plan, err := b.compile()
	if err != nil {
		return Preview{}, nil
	}
	ctx := &engine.ExecContext{Now: c.clock()}
	res, err := plan.ExecuteHead(ctx, PreviewRows)
	c.countSegments(ctx)
	if err != nil {
		return Preview{}, nil
	}
	pv := Preview{Cols: res.ColumnNames(), Rows: res.TextRows(PreviewRows)}
	if plan.Deterministic() {
		c.previewMu.Lock()
		// A delete committed since the state was loaded has dropped the
		// entry already (forgetPreview); storing it now would keep it.
		if live, ok := c.state.Load().datasets[full]; ok && !live.Deleted {
			c.previews[full] = stampedPreview{vv, pv}
		}
		c.previewMu.Unlock()
	}
	return pv, nil
}

// forgetPreview drops a deleted dataset's memo entry, so upload/delete churn
// leaves no rendered rows behind.
func (c *Catalog) forgetPreview(full string) {
	c.previewMu.Lock()
	delete(c.previews, full)
	c.previewMu.Unlock()
}
