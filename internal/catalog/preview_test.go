package catalog

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"sqlshare/internal/wal"
)

// TestPreviewOverGETDATEAdvances: a preview is a read, so GETDATE() in a
// view's preview reads the clock of the read, not of the save — and a
// nondeterministic rendering is never memoized.
func TestPreviewOverGETDATEAdvances(t *testing.T) {
	c := newTestCatalog(t) // the clock advances a minute per reading
	if _, err := c.SaveView("alice", "stamped", "SELECT station, GETDATE() AS now FROM water", Meta{}); err != nil {
		t.Fatal(err)
	}
	var seen []string
	for i := 0; i < 3; i++ {
		pv, err := c.Preview("alice", "stamped")
		if err != nil || len(pv.Rows) != 3 {
			t.Fatalf("preview %d: %v, %v", i, pv, err)
		}
		if now := pv.Rows[0][1]; slices.Contains(seen, now) {
			t.Fatalf("read %d previews now = %s again (reads so far %v): the save-time clock", i, now, seen)
		} else {
			seen = append(seen, now)
		}
	}
	if _, ok := c.previews["alice.stamped"]; ok {
		t.Fatal("a GETDATE() preview was memoized")
	}
}

// TestAppendRendersNoPreview: an append bumps versions and nothing else — it
// renders no preview of the target or of the views over it, on the live path
// as on replay; the next read of each renders it.
func TestAppendRendersNoPreview(t *testing.T) {
	c := newTestCatalog(t)
	if _, err := c.CreateDatasetFromTable("alice", "sites", stationTable(t, "s", 3), Meta{}); err != nil {
		t.Fatal(err)
	}
	views := map[string]string{
		"proj":   "SELECT station FROM water",
		"totals": "SELECT station, SUM(val) AS total FROM water GROUP BY station",
		"joined": "SELECT w.station, w.val FROM water w JOIN sites s ON w.station = s.station",
	}
	for name, sql := range views {
		if _, err := c.SaveView("alice", name, sql, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	appendMore := func(name string) {
		t.Helper()
		if _, err := c.CreateDatasetFromTable("alice", name, seedTable(t, name), Meta{}); err != nil {
			t.Fatal(err)
		}
		if err := c.Append("alice", "water", name); err != nil {
			t.Fatal(err)
		}
	}
	appendMore("more1")
	if n := len(c.previews); n != 0 {
		t.Fatalf("memo holds %d previews after writes only, want 0", n)
	}
	for name := range views {
		if _, err := c.Preview("alice", name); err != nil {
			t.Fatal(err)
		}
	}
	memo := fmt.Sprint(c.previews)
	appendMore("more2")
	if got := fmt.Sprint(c.previews); got != memo {
		t.Fatalf("an append re-rendered previews:\nbefore %s\nafter  %s", memo, got)
	}
	pv, err := c.Preview("alice", "proj")
	if err != nil || len(pv.Rows) != 9 {
		t.Fatalf("proj after two appends: %v, %v; want 9 rows", pv, err)
	}
}

// TestParentFormatSnapshotRestores: a snapshot written while previews were
// persisted carries "previewCols", "preview" and "previewVersions" keys per
// dataset. It still restores, to the catalog its log replays to.
func TestParentFormatSnapshotRestores(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, nil)
	for _, step := range scriptedWorkload(t) {
		step.fn(t, c)
	}
	c.mu.RLock()
	payload, err := json.Marshal(c.captureSnapshotLocked())
	c.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ds := range doc["datasets"].([]any) {
		m := ds.(map[string]any)
		full := m["owner"].(string) + "." + m["name"].(string)
		m["previewCols"] = []string{"station"}
		m["preview"] = [][]string{{"stale"}}
		m["previewVersions"] = map[string]uint64{full: 1}
	}
	if payload, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	snap := &wal.Snapshot{}
	if err := json.Unmarshal(payload, snap); err != nil { // what wal.LoadSnapshot decodes with
		t.Fatal(err)
	}
	restored := New()
	if err := restored.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	replayed, d2 := openDurable(t, dir, nil)
	defer d2.Close()
	if got, want := restored.Fingerprint(), replayed.Fingerprint(); got != want {
		t.Fatalf("restored parent-format snapshot fingerprint %s != replayed %s", got, want)
	}
	pv, err := restored.Preview("alice", "water")
	if err != nil || len(pv.Rows) == 0 || pv.Rows[0][0] == "stale" {
		t.Fatalf("preview after restore: %v, %v; want rendered rows", pv, err)
	}
}

// TestDatasetReadersGetCopies: what Dataset and SearchDatasets return is the
// caller's to read while appends and metadata edits rewrite the catalog's own
// record. Run with -race: the catalog used to hand out its live *Dataset.
func TestDatasetReadersGetCopies(t *testing.T) {
	c := newTestCatalog(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n >= 0; {
				select {
				case <-done:
					return
				default:
				}
				read := c.SearchDatasets("alice", "water")
				ds, err := c.Dataset("alice", "water")
				if err != nil {
					t.Error(err)
					return
				}
				for _, ds := range append(read, ds) {
					n += len(ds.SQL) + len(ds.Meta.Description) + len(ds.Meta.Tags) + len(ds.SharedWith)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("more%d", i)
		if _, err := c.CreateDatasetFromTable("alice", name, seedTable(t, name), Meta{}); err != nil {
			t.Fatal(err)
		}
		if err := c.Append("alice", "water", name); err != nil {
			t.Fatal(err)
		}
		if err := c.UpdateMeta("alice", "water", Meta{Description: "water " + name, Tags: []string{name}}); err != nil {
			t.Fatal(err)
		}
		if err := c.ShareWith("alice", "water", "bob"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
