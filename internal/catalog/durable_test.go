package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sqlshare/internal/obs"
	"sqlshare/internal/wal"
)

// workloadStep is one catalog mutation producing exactly one WAL record.
type workloadStep struct {
	name string
	fn   func(t *testing.T, c *Catalog)
}

// scriptedWorkload exercises every journaled operation once. Each step
// appends exactly one record, so step i's post-state corresponds to a log
// prefix of i records — the invariant TestCrashMatrix leans on.
func scriptedWorkload(t *testing.T) []workloadStep {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	return []workloadStep{
		{"create_user alice", func(t *testing.T, c *Catalog) {
			_, err := c.CreateUser("alice", "alice@uw.edu")
			must(err)
		}},
		{"create_user bob", func(t *testing.T, c *Catalog) {
			_, err := c.CreateUser("bob", "bob@uw.edu")
			must(err)
		}},
		{"upload water", func(t *testing.T, c *Catalog) {
			_, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "water"),
				Meta{Description: "water quality", Tags: []string{"env"}})
			must(err)
		}},
		{"save_view clean", func(t *testing.T, c *Catalog) {
			_, err := c.SaveView("alice", "clean", "SELECT station FROM water", Meta{})
			must(err)
		}},
		{"upload water2", func(t *testing.T, c *Catalog) {
			_, err := c.CreateDatasetFromTable("alice", "water2", seedTable(t, "water2"), Meta{})
			must(err)
		}},
		{"append water2 into water", func(t *testing.T, c *Catalog) {
			must(c.Append("alice", "water", "water2"))
		}},
		{"publish water", func(t *testing.T, c *Catalog) {
			must(c.SetVisibility("alice", "water", Public))
		}},
		{"share clean with bob", func(t *testing.T, c *Catalog) {
			must(c.ShareWith("alice", "clean", "bob"))
		}},
		{"update clean meta", func(t *testing.T, c *Catalog) {
			must(c.UpdateMeta("alice", "clean", Meta{Description: "stations only", Tags: []string{"derived", "env"}}))
		}},
		{"mint DOI for water", func(t *testing.T, c *Catalog) {
			_, err := c.MintDOI("alice", "water")
			must(err)
		}},
		{"save macro", func(t *testing.T, c *Catalog) {
			_, err := c.SaveMacro("alice", "stats", "SELECT COUNT(*) FROM $t")
			must(err)
		}},
		{"materialize clean", func(t *testing.T, c *Catalog) {
			_, err := c.Materialize("alice", "clean", "cleansnap")
			must(err)
		}},
		{"materialize clean in place", func(t *testing.T, c *Catalog) {
			must(c.MaterializeInPlace("alice", "clean"))
		}},
		{"delete cleansnap", func(t *testing.T, c *Catalog) {
			must(c.Delete("alice", "cleansnap"))
		}},
	}
}

func openDurable(t *testing.T, dir string, opts *DurableOptions) (*Catalog, *Durability) {
	t.Helper()
	c, d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

// TestDurableRoundTrip runs the whole workload durably, reopens the
// directory and requires the recovered catalog to be indistinguishable.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, nil)
	for _, step := range scriptedWorkload(t) {
		step.fn(t, c)
	}
	want := c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, nil)
	defer d2.Close()
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != live %s", got, want)
	}
	rec := d2.RecoveryStats()
	if rec.RecordsReplayed != 14 || rec.SnapshotPath != "" {
		t.Errorf("recovery stats: %+v", rec)
	}
	// The recovered catalog accepts new mutations.
	if _, err := c2.CreateUser("carol", "carol@uw.edu"); err != nil {
		t.Fatal(err)
	}
	if d2.LastLSN() != 15 {
		t.Errorf("LastLSN after post-recovery mutation = %d, want 15", d2.LastLSN())
	}
}

// TestCrashMatrix kills the log at every record boundary and at several
// offsets inside every record, and requires recovery to land exactly on the
// state the surviving prefix describes — bit-for-bit, via Fingerprint.
func TestCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, &DurableOptions{SyncMode: wal.SyncNone})
	fps := []string{c.Fingerprint()} // fps[i] = state after i records
	steps := scriptedWorkload(t)
	for _, step := range steps {
		step.fn(t, c)
		fps = append(fps, c.Fingerprint())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	seg := wal.SegmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recs, validLen, err := wal.DecodeAll(data)
	if err != nil || validLen != int64(len(data)) {
		t.Fatalf("workload segment: %d records, validLen %d/%d, err %v", len(recs), validLen, len(data), err)
	}
	if len(recs) != len(steps) {
		t.Fatalf("%d records for %d steps — the 1:1 invariant broke", len(recs), len(steps))
	}
	// boundaries[i] = file offset just after record i.
	boundaries := []int64{8} // len of the segment magic
	for _, rec := range recs {
		enc, err := wal.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+int64(len(enc)))
	}

	recoverAt := func(t *testing.T, cut int64, wantRecords int, wantTorn bool) {
		t.Helper()
		crashDir := t.TempDir()
		if err := os.WriteFile(wal.SegmentPath(crashDir, 1), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rc, rd, err := OpenDurable(crashDir, &DurableOptions{SyncMode: wal.SyncNone})
		if err != nil {
			t.Fatalf("recovery at cut %d: %v", cut, err)
		}
		defer rd.Close()
		stats := rd.RecoveryStats()
		if stats.RecordsReplayed != wantRecords {
			t.Errorf("cut %d: replayed %d records, want %d", cut, stats.RecordsReplayed, wantRecords)
		}
		if wantTorn && stats.TornBytes == 0 {
			t.Errorf("cut %d: expected a torn tail", cut)
		}
		if got := rc.Fingerprint(); got != fps[wantRecords] {
			t.Errorf("cut %d: recovered state does not match the %d-record prefix", cut, wantRecords)
		}
		// The torn tail is gone and the log accepts appends again.
		if _, err := rc.CreateUser("postcrash", ""); err != nil {
			t.Errorf("cut %d: post-recovery mutation: %v", cut, err)
		}
		if rd.LastLSN() != uint64(wantRecords)+1 {
			t.Errorf("cut %d: post-recovery LSN %d, want %d", cut, rd.LastLSN(), wantRecords+1)
		}
	}

	for i := 0; i < len(recs); i++ {
		// Crash exactly at the boundary after record i…
		recoverAt(t, boundaries[i], i, false)
		// …and torn inside record i+1: right after the boundary, mid-frame,
		// and one byte short of complete.
		next := boundaries[i+1] - boundaries[i]
		for _, delta := range []int64{1, next / 2, next - 1} {
			recoverAt(t, boundaries[i]+delta, i, true)
		}
	}
	recoverAt(t, boundaries[len(recs)], len(recs), false) // intact log
}

// TestFailedMutationsJournalNothing pins satellite invariant #2: a mutation
// that fails validation must leave neither a WAL record nor an in-memory
// effect.
func TestFailedMutationsJournalNothing(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, nil)
	defer d.Close()
	if _, err := c.CreateUser("alice", "alice@uw.edu"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "water"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveMacro("alice", "m", "SELECT * FROM $t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveView("alice", "wet", "SELECT * FROM water WHERE val > 1", Meta{}); err != nil {
		t.Fatal(err)
	}
	baseLSN := d.LastLSN()
	baseFP := c.Fingerprint()

	failures := []struct {
		name string
		fn   func() error
	}{
		{"empty user name", func() error { _, err := c.CreateUser("", ""); return err }},
		{"duplicate user", func() error { _, err := c.CreateUser("alice", ""); return err }},
		{"upload for unknown owner", func() error {
			_, err := c.CreateDatasetFromTable("nobody", "x", seedTable(t, "x"), Meta{})
			return err
		}},
		{"duplicate dataset", func() error {
			_, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "water"), Meta{})
			return err
		}},
		{"upload over quota", func() error {
			c.SetQuotaBytes(1)
			defer c.SetQuotaBytes(0)
			_, err := c.CreateDatasetFromTable("alice", "big", seedTable(t, "big"), Meta{})
			return err
		}},
		{"view with bad SQL", func() error { _, err := c.SaveView("alice", "v", "SELEC nope", Meta{}); return err }},
		{"view that does not compile", func() error {
			_, err := c.SaveView("alice", "v", "SELECT * FROM missing_table", Meta{})
			return err
		}},
		{"append to missing dataset", func() error { return c.Append("alice", "nope", "water") }},
		{"share with unknown user", func() error { return c.ShareWith("alice", "water", "nobody") }},
		{"delete by non-owner", func() error {
			if _, err := c.CreateUser("eve", ""); err != nil { // one real record
				return nil
			}
			return c.Delete("eve", "alice.water")
		}},
		{"DOI on private dataset", func() error { _, err := c.MintDOI("alice", "water"); return err }},
		{"macro without params", func() error { _, err := c.SaveMacro("alice", "m2", "SELECT 1"); return err }},
		{"duplicate macro", func() error { _, err := c.SaveMacro("alice", "m", "SELECT * FROM $t"); return err }},
		{"materialize missing dataset", func() error { _, err := c.Materialize("alice", "nope", "snap"); return err }},
		{"materialize wrapper in place", func() error { return c.MaterializeInPlace("alice", "water") }},
		{"upload named x]y", func() error {
			_, err := c.CreateDatasetFromTable("alice", "x]y", seedTable(t, "x"), Meta{})
			return err
		}},
		{"upload with no name", func() error {
			_, err := c.CreateDatasetFromTable("alice", "", seedTable(t, "x"), Meta{})
			return err
		}},
		{"materialize into s]", func() error { _, err := c.Materialize("alice", "water", "s]"); return err }},
		{"materialize a view into no name", func() error { _, err := c.Materialize("alice", "wet", ""); return err }},
		{"view with no name", func() error { _, err := c.SaveView("alice", "", "SELECT * FROM water", Meta{}); return err }},
		{"user named a]b", func() error { _, err := c.CreateUser("a]b", ""); return err }},
	}
	// "delete by non-owner" creates user eve first, which is one legitimate
	// record; account for it.
	extraLSN := uint64(0)
	for _, f := range failures {
		if f.name == "delete by non-owner" {
			extraLSN = 1
		}
		if err := f.fn(); err == nil {
			t.Errorf("%s: expected an error", f.name)
		}
		if got := d.LastLSN(); got != baseLSN+extraLSN {
			t.Errorf("%s: LSN advanced to %d (base %d) — a failed mutation was journaled", f.name, got, baseLSN)
		}
		if extraLSN == 0 && c.Fingerprint() != baseFP {
			t.Errorf("%s: the catalog changed", f.name)
		}
	}

	// Reopen: the recovered state matches the live one, proving no failed
	// mutation left a record behind.
	liveFP := c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, nil)
	defer d2.Close()
	if got := c2.Fingerprint(); got != liveFP {
		t.Fatalf("recovered fingerprint differs after failed mutations")
	}
}

// TestCheckpointAndRecovery snapshots mid-workload and requires the next
// boot to restore the snapshot and replay only the tail.
func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, nil)
	steps := scriptedWorkload(t)
	for _, step := range steps[:7] {
		step.fn(t, c)
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LSN != 7 || stats.Path == "" || stats.Users != 2 {
		t.Fatalf("checkpoint stats: %+v", stats)
	}
	// A checkpoint with nothing new is skipped.
	again, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if again.Path != "" {
		t.Errorf("no-op checkpoint wrote %s", again.Path)
	}
	for _, step := range steps[7:] {
		step.fn(t, c)
	}
	want := c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, nil)
	rec := d2.RecoveryStats()
	if rec.SnapshotLSN != 7 || rec.RecordsReplayed != 7 {
		t.Errorf("recovery stats: %+v", rec)
	}
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint differs after checkpointed recovery")
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecordsFiresOncePerCrossing: N·threshold journaled records
// produce N background checkpoints, and records journaled after a crossing
// do not re-arm the trigger while its checkpoint is pending — they used to,
// so every crossing ran two checkpoints back to back. The test holds ckptMu
// to park the checkpointer between taking the trigger and capturing, which
// makes "after the crossing, before the capture" a place it can append in.
func TestCheckpointRecordsFiresOncePerCrossing(t *testing.T) {
	const threshold, rounds = 4, 3
	c, d := openDurable(t, t.TempDir(), &DurableOptions{CheckpointRecords: threshold})
	parked := false // the test holds ckptMu
	defer func() {
		if parked {
			d.ckptMu.Unlock() // a failed test must not leave Close waiting on the checkpointer
		}
		d.Close()
	}()
	m := obs.NewPlatformMetrics(obs.NewRegistry())
	d.SetMetrics(m)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	users := 0
	journal := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			users++
			if _, err := c.CreateUser(fmt.Sprintf("u%d", users), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	// crossing journals threshold records with the checkpointer parked and
	// returns once it has taken the trigger the last of them sent.
	crossing := func() {
		t.Helper()
		d.ckptMu.Lock()
		parked = true
		journal(threshold)
		waitFor("the checkpointer to take the trigger", func() bool { return len(d.trigger) == 0 })
	}
	checkpointed := func() {
		t.Helper()
		d.ckptMu.Unlock()
		parked = false
		waitFor("the checkpoint", func() bool { return d.lastSnapLSN.Load() == d.LastLSN() })
	}

	for round := 1; round <= rounds; round++ {
		crossing()
		checkpointed()
		if got := m.CheckpointSeconds.Count(); got != int64(round) {
			t.Fatalf("%d records journaled at threshold %d: %d checkpoints, want %d", round*threshold, threshold, got, round)
		}
	}

	crossing()
	journal(1)
	if len(d.trigger) != 0 {
		t.Fatal("a record journaled past the crossing re-armed the checkpoint trigger")
	}
	checkpointed()
	if got := d.recordsSince.Load(); got != 0 {
		t.Fatalf("recordsSince = %d after a checkpoint that captured every record, want 0", got)
	}
	// Nothing is pending: no trigger, no checkpointer at work.
	d.ckptMu.Lock()
	pending := len(d.trigger)
	d.ckptMu.Unlock()
	if got := m.CheckpointSeconds.Count(); pending != 0 || got != rounds+1 {
		t.Fatalf("%d checkpoints (+%d pending) after %d crossings, want %d", got, pending, rounds+1, rounds+1)
	}
}

// TestSnapshotFallback corrupts the newest snapshot and requires recovery
// to fall back (to an older snapshot or to full replay) with no data loss.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, nil)
	steps := scriptedWorkload(t)
	for _, step := range steps[:7] {
		step.fn(t, c)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, step := range steps[7:12] {
		step.fn(t, c)
	}
	ck2, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range steps[12:] {
		step.fn(t, c)
	}
	want := c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the newest snapshot.
	raw, err := os.ReadFile(ck2.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(ck2.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, nil)
	defer d2.Close()
	rec := d2.RecoveryStats()
	if rec.SnapshotsSkipped != 1 || rec.SnapshotLSN != 7 {
		t.Errorf("fallback recovery stats: %+v", rec)
	}
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("fallback recovery lost data")
	}
}

// TestOpenReadOnly recovers without modifying the directory, even with a
// torn tail on disk.
func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, &DurableOptions{SyncMode: wal.SyncNone})
	for _, step := range scriptedWorkload(t) {
		step.fn(t, c)
	}
	want := c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record.
	seg := wal.SegmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	last, err := wal.EncodeRecord(recs[len(recs)-1])
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:int64(len(data))-int64(len(last))/2]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	before := dirListing(t, dir)
	ro, stats, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsReplayed != len(recs)-1 || stats.TornBytes == 0 {
		t.Errorf("read-only recovery stats: %+v", stats)
	}
	if got := ro.Fingerprint(); got == want {
		t.Errorf("torn-tail recovery should differ from the full state")
	}
	if after := dirListing(t, dir); before != after {
		t.Errorf("OpenReadOnly modified the directory:\nbefore %s\nafter  %s", before, after)
	}
	// A writable open then truncates the torn tail as usual.
	c2, d2 := openDurable(t, dir, &DurableOptions{SyncMode: wal.SyncNone})
	defer d2.Close()
	if c2.Fingerprint() != ro.Fingerprint() {
		t.Errorf("writable recovery disagrees with read-only recovery")
	}
}

func dirListing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out += e.Name() + ":" + info.ModTime().String() + ":" + filepath.Ext(e.Name()) + ":" + fmtInt(info.Size()) + ";"
	}
	return out
}

func fmtInt(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}
