package catalog

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/wal"
)

// The committed directory testdata/legacy_shardmap was written by the
// durable catalog while cluster mode existed, with a constant clock
// (legacyFixtureTime):
//
//	wal-…01.log  LSN 1 create_user alice, LSN 2 shard_map (epoch 1)
//	snap-…02     checkpoint at LSN 2, carrying shardMapEpoch/shardMap
//	wal-…03.log  LSN 3 create_user bob, LSN 4 create_dataset bob.water,
//	             LSN 5 shard_map (epoch 2), LSN 6 save_view bob.clean
//
// Recovery restores the snapshot (ignoring its shard-map keys) and replays
// LSNs 3–6, skipping the one shard_map record in that tail.
var legacyFixtureTime = time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)

// copyLegacyFixture copies the fixture into a fresh directory: recovery
// truncates and appends, and the committed files must stay as written.
func copyLegacyFixture(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "legacy_shardmap")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// legacyFixtureOracle builds the fixture's catalog in memory without the
// shard map: the state a recovered legacy log must equal.
func legacyFixtureOracle(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	c.SetClock(func() time.Time { return legacyFixtureTime })
	for _, u := range []string{"alice", "bob"} {
		if _, err := c.CreateUser(u, u+"@uw.edu"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateDatasetFromTable("bob", "water", seedTable(t, "water"),
		Meta{Description: "water quality", Tags: []string{"env"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveView("bob", "clean", "SELECT station FROM water WHERE val > 1", Meta{}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLegacyShardMapLogRecovers(t *testing.T) {
	dir := copyLegacyFixture(t)
	var logged bytes.Buffer
	c, d, err := OpenDurable(dir, &DurableOptions{
		SyncMode: wal.SyncNone,
		Logger:   slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := d.RecoveryStats()
	if stats.ShardMapRecordsSkipped != 1 || stats.SnapshotLSN != 2 || stats.RecordsReplayed != 4 || stats.LastLSN != 6 {
		t.Errorf("recovery stats: %+v", stats)
	}
	if n := strings.Count(logged.String(), "level=WARN"); n != 1 {
		t.Errorf("recovery logged %d warnings, want 1:\n%s", n, logged.String())
	}
	if got, want := c.Fingerprint(), legacyFixtureOracle(t).Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != catalog built without the shard map %s", got, want)
	}

	// The skipped record's LSN still counts: the next append follows it.
	if _, err := c.CreateUser("carol", "carol@uw.edu"); err != nil {
		t.Fatal(err)
	}
	if lsn := d.LastLSN(); lsn != 7 {
		t.Errorf("first append after recovery got LSN %d, want 7", lsn)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, nil)
	defer d2.Close()
	if stats := d2.RecoveryStats(); stats.SnapshotLSN != 7 || stats.ShardMapRecordsSkipped != 0 {
		t.Errorf("reopen after checkpoint: %+v", stats)
	}
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("reopened fingerprint %s != live %s", got, want)
	}
}

// TestUnknownOpFailsRecovery pins that the shard_map skip is an exception:
// a record with any other op recovery does not know is corruption.
func TestUnknownOpFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, &DurableOptions{SyncMode: wal.SyncNone})
	if _, err := c.CreateUser("alice", "alice@uw.edu"); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(&wal.Record{Time: legacyFixtureTime, Op: "shard_move"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(dir, nil); err == nil || !strings.Contains(err.Error(), `unknown journal op "shard_move"`) {
		t.Fatalf("recovery over an unknown op: err = %v", err)
	}
}
