package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlshare/internal/obs"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/wal"
)

// This file orchestrates recovery and checkpointing: OpenDurable restores
// the latest valid snapshot, replays the WAL tail, and attaches a
// Durability journal so every subsequent mutation is logged before it is
// applied. The checkpointer periodically serializes the whole catalog,
// rotates the log, and prunes segments the retained snapshots cover.

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// SyncMode is the WAL durability mode (default SyncGroup).
	SyncMode wal.SyncMode
	// CheckpointEvery triggers a background checkpoint on this wall-clock
	// period; zero disables the timer.
	CheckpointEvery time.Duration
	// CheckpointRecords triggers a background checkpoint once this many
	// records accumulate since the last one; zero disables the threshold.
	CheckpointRecords int
	// SnapshotsKept is how many snapshots survive pruning (minimum and
	// default 2, so recovery can always fall back one snapshot).
	SnapshotsKept int
	// Logger receives recovery and checkpoint diagnostics; nil is silent.
	Logger *slog.Logger
}

func (o *DurableOptions) withDefaults() DurableOptions {
	out := DurableOptions{}
	if o != nil {
		out = *o
	}
	if out.SnapshotsKept < 2 {
		out.SnapshotsKept = 2
	}
	return out
}

// RecoveryStats describes what startup recovery found and replayed.
type RecoveryStats struct {
	// SnapshotPath/SnapshotLSN identify the restored snapshot ("" / 0 when
	// the catalog was rebuilt from the log alone).
	SnapshotPath string
	SnapshotLSN  uint64
	// SnapshotsSkipped counts corrupt snapshots recovery fell back past.
	SnapshotsSkipped int
	// RecordsReplayed is the WAL tail length applied on top of the snapshot,
	// skipped records included.
	RecordsReplayed int
	// ShardMapRecordsSkipped counts retired shard_map records in the tail:
	// logs written while cluster mode existed journaled its placement table
	// this way. Replay skips each with a warning; its LSN still counts.
	ShardMapRecordsSkipped int
	// TornBytes is the length of the torn final record a crash left behind.
	TornBytes int64
	// LastLSN is the highest LSN on disk after recovery.
	LastLSN uint64
	// Duration is wall-clock recovery time.
	Duration time.Duration
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	Path     string // snapshot file written
	LSN      uint64 // last LSN the snapshot covers
	Bytes    int64  // snapshot file size
	Datasets int
	Users    int
	Tables   int
	Duration time.Duration
}

// Durability is the catalog's journal: it owns the WAL writer and the
// checkpointer. It is attached to the catalog by OpenDurable and closed by
// the server on shutdown.
type Durability struct {
	cat  *Catalog
	dir  string
	w    *wal.Writer
	opts DurableOptions

	recovery RecoveryStats
	metrics  atomic.Pointer[obs.PlatformMetrics]

	ckptMu       sync.Mutex // serializes checkpoints
	lastSnapLSN  atomic.Uint64
	recordsSince atomic.Int64

	trigger chan struct{}
	stop    chan struct{}
	bg      sync.WaitGroup
	closed  atomic.Bool
}

// OpenDurable opens (creating if needed) the data directory, recovers the
// catalog from the latest valid snapshot plus the WAL tail, and returns the
// catalog with its journal attached: every mutation from here on is durable
// before it is visible.
func OpenDurable(dir string, opts *DurableOptions) (*Catalog, *Durability, error) {
	o := opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	c, scan, stats, err := recoverCatalog(dir, o.Logger)
	if err != nil {
		return nil, nil, err
	}
	w, err := wal.OpenWriter(dir, scan, o.SyncMode)
	if err != nil {
		return nil, nil, err
	}
	d := &Durability{cat: c, dir: dir, w: w, opts: o, recovery: stats}
	d.lastSnapLSN.Store(stats.SnapshotLSN)
	// Capped one short of the threshold: after a long replay the first append crosses it.
	d.recordsSince.Store(min(int64(stats.RecordsReplayed), max(int64(o.CheckpointRecords)-1, 0)))
	c.SetJournal(d)
	if o.CheckpointEvery > 0 || o.CheckpointRecords > 0 {
		d.startBackground()
	}
	return c, d, nil
}

// OpenReadOnly recovers a catalog from dir without opening the log for
// writing: nothing is truncated, created, or mutated, so it is safe to
// point at a live server's data directory (workload-report does this).
func OpenReadOnly(dir string) (*Catalog, RecoveryStats, error) {
	c, _, stats, err := recoverCatalog(dir, nil)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	return c, stats, nil
}

// retiredOpShardMap is the op of the cluster placement records that logs
// written before cluster mode was deleted may hold. Recovery skips them;
// every other unknown op still fails it.
const retiredOpShardMap = "shard_map"

// recoverCatalog is the shared restore-then-replay path.
func recoverCatalog(dir string, logger *slog.Logger) (*Catalog, *wal.ScanResult, RecoveryStats, error) {
	start := time.Now()
	stats := RecoveryStats{}
	// The records apply in place to a state nobody has loaded yet, which is
	// published once, at the end.
	st := newState()
	snaps, err := wal.ListSnapshots(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, stats, err
	}
	for _, si := range snaps {
		snap, lerr := wal.LoadSnapshot(si.Path)
		if lerr == nil {
			restored, rerr := restoreSnapshot(snap)
			if rerr == nil {
				st = restored
				stats.SnapshotPath = si.Path
				stats.SnapshotLSN = snap.LSN
				break
			}
			lerr = rerr
		}
		// Corrupt or unrestorable snapshot: fall back to the next older one.
		stats.SnapshotsSkipped++
		if logger != nil {
			logger.Warn("recovery: skipping snapshot", "path", si.Path, "error", lerr)
		}
	}
	scan, err := wal.ScanDir(dir, stats.SnapshotLSN)
	if err != nil {
		return nil, nil, stats, err
	}
	for _, rec := range scan.Records {
		if rec.Op == retiredOpShardMap {
			stats.ShardMapRecordsSkipped++
			if logger != nil {
				logger.Warn("recovery: skipping retired shard_map record", "lsn", rec.LSN)
			}
			continue
		}
		if aerr := st.apply(rec); aerr != nil {
			return nil, nil, stats, fmt.Errorf("catalog: replay LSN %d (%s): %w", rec.LSN, rec.Op, aerr)
		}
	}
	c := New()
	c.state.Store(st)
	stats.RecordsReplayed = len(scan.Records)
	stats.TornBytes = scan.TornBytes
	stats.LastLSN = scan.LastLSN
	stats.Duration = time.Since(start)
	if logger != nil {
		logger.Info("recovery complete",
			"snapshot", stats.SnapshotPath, "snapshotLSN", stats.SnapshotLSN,
			"replayed", stats.RecordsReplayed, "tornBytes", stats.TornBytes,
			"lastLSN", stats.LastLSN, "duration", stats.Duration)
	}
	return c, scan, stats, nil
}

// Append implements Journal: make the record durable, then nudge the
// background checkpointer if this record crosses the threshold — only that
// one, or later records re-arm the one-slot trigger while the checkpoint
// runs and it runs twice. Called with the catalog's writer mutex held.
func (d *Durability) Append(rec *wal.Record) error {
	if err := d.w.Append(rec); err != nil {
		return err
	}
	if n := d.opts.CheckpointRecords; n > 0 && d.recordsSince.Add(1) == int64(n) && d.trigger != nil {
		select {
		case d.trigger <- struct{}{}:
		default:
		}
	}
	return nil
}

// SetMetrics attaches the observability bundle: WAL fsync/append metrics
// flow live, and the recovery counters are credited once.
func (d *Durability) SetMetrics(m *obs.PlatformMetrics) {
	d.metrics.Store(m)
	if m == nil {
		d.w.SetMetrics(nil, nil, nil)
		return
	}
	d.w.SetMetrics(m.WALFsyncSeconds, m.WALRecords, m.WALBytes)
	m.RecoveryRecords.Add(int64(d.recovery.RecordsReplayed))
	m.RecoveryTornBytes.Add(d.recovery.TornBytes)
}

// RecoveryStats reports what startup recovery did.
func (d *Durability) RecoveryStats() RecoveryStats { return d.recovery }

// LastLSN returns the highest durably committed LSN.
func (d *Durability) LastLSN() uint64 { return d.w.LastLSN() }

// Dir returns the data directory.
func (d *Durability) Dir() string { return d.dir }

// Sync blocks until every record appended so far is durable.
func (d *Durability) Sync() error { return d.w.Sync() }

// Checkpoint serializes the full catalog to a new snapshot, rotates the WAL
// so the next segment starts past it, and prunes obsolete files. Safe to
// call concurrently with queries and mutations; checkpoints themselves are
// serialized. The catalog's writer mutex covers only loading the published
// state and the LSN as a pair; the capture, every table's encoding and the
// file's write run after it is released.
func (d *Durability) Checkpoint() (CheckpointStats, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	start := time.Now()
	c := d.cat

	// Load the state and its covering LSN under the writer mutex: mutations
	// hold it across journal-append + publish, so no record can land
	// between the two reads. The state is immutable and the capture copies
	// no cell: installed tables are immutable too (state.baseTables), so the
	// references it takes still hold this LSN's rows when WriteSnapshot
	// encodes them. The records-since count restarts here: records
	// journaled while the snapshot is written are not in it.
	c.mu.Lock()
	st := c.state.Load()
	lsn := d.w.LastLSN()
	d.recordsSince.Store(0)
	c.mu.Unlock()
	snap := st.capture(c.clock())
	snap.LSN = lsn

	if lsn == d.lastSnapLSN.Load() {
		// Nothing journaled since the last checkpoint (or since the
		// restored snapshot); skip the write.
		return CheckpointStats{LSN: lsn}, nil
	}

	path, err := wal.WriteSnapshot(d.dir, snap)
	if err != nil {
		return CheckpointStats{}, err
	}
	if err := d.w.Rotate(wal.SegmentPath(d.dir, lsn+1)); err != nil {
		return CheckpointStats{}, err
	}
	if err := wal.RemoveObsolete(d.dir, d.opts.SnapshotsKept); err != nil {
		// The checkpoint itself is durable; stale files only cost disk.
		if d.opts.Logger != nil {
			d.opts.Logger.Warn("checkpoint: cleanup failed", "error", err)
		}
	}
	stats := CheckpointStats{
		Path: path, LSN: lsn,
		Datasets: len(snap.Datasets), Users: len(snap.Users), Tables: len(snap.Tables),
		Duration: time.Since(start),
	}
	if fi, err := os.Stat(path); err == nil {
		stats.Bytes = fi.Size()
	}
	if m := d.metrics.Load(); m != nil {
		m.CheckpointSeconds.Observe(stats.Duration.Seconds())
	}
	// Published after it is counted: whoever sees the snapshot LSN reach
	// the log's also sees the checkpoint in the metrics.
	d.lastSnapLSN.Store(lsn)
	if d.opts.Logger != nil {
		d.opts.Logger.Info("checkpoint complete", "path", path, "lsn", lsn,
			"bytes", stats.Bytes, "duration", stats.Duration)
	}
	return stats, nil
}

// Close stops the checkpointer, flushes and fsyncs the WAL, and closes the
// segment. The catalog stays usable in memory but mutations fail once the
// writer is closed, so detach the journal first if that matters.
func (d *Durability) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	if d.stop != nil {
		close(d.stop)
		d.bg.Wait()
	}
	return d.w.Close()
}

func (d *Durability) startBackground() {
	d.stop = make(chan struct{})
	d.trigger = make(chan struct{}, 1)
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		var tick <-chan time.Time
		if d.opts.CheckpointEvery > 0 {
			t := time.NewTicker(d.opts.CheckpointEvery)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-d.stop:
				return
			case <-tick:
			case <-d.trigger:
			}
			if _, err := d.Checkpoint(); err != nil && d.opts.Logger != nil {
				d.opts.Logger.Error("background checkpoint failed", "error", err)
			}
		}
	}()
}

// capture captures the entire state: copies of users, datasets, macros and
// versions, and references to the base tables, whose cells it does not
// touch. Output ordering is deterministic.
func (s *state) capture(now time.Time) *wal.Snapshot {
	snap := &wal.Snapshot{Time: now}
	for _, u := range s.users {
		snap.Users = append(snap.Users, wal.SnapUser{Name: u.Name, Email: u.Email, Created: u.Created})
	}
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].Name < snap.Users[j].Name })
	for _, ds := range s.datasets {
		sd := wal.SnapDataset{
			Owner: ds.Owner, Name: ds.Name, SQL: ds.SQL,
			Description: ds.Meta.Description, Tags: ds.Meta.Tags,
			IsWrapper: ds.IsWrapper, Public: ds.Visibility == Public,
			Created: ds.Created, Deleted: ds.Deleted, DOI: ds.DOI,
			Materialized: ds.Materialized, OriginalSQL: ds.OriginalSQL,
		}
		for u := range ds.SharedWith {
			sd.SharedWith = append(sd.SharedWith, u)
		}
		sort.Strings(sd.SharedWith)
		snap.Datasets = append(snap.Datasets, sd)
	}
	sort.Slice(snap.Datasets, func(i, j int) bool {
		return snap.Datasets[i].Owner+"."+snap.Datasets[i].Name < snap.Datasets[j].Owner+"."+snap.Datasets[j].Name
	})
	for _, m := range s.macros {
		snap.Macros = append(snap.Macros, wal.SnapMacro{Owner: m.Owner, Name: m.Name, Template: m.Template})
	}
	sort.Slice(snap.Macros, func(i, j int) bool {
		return snap.Macros[i].Owner+"."+snap.Macros[i].Name < snap.Macros[j].Owner+"."+snap.Macros[j].Name
	})
	for key, t := range s.baseTables {
		snap.Tables = append(snap.Tables, wal.SnapTable{Key: key, Table: t})
	}
	sort.Slice(snap.Tables, func(i, j int) bool { return snap.Tables[i].Key < snap.Tables[j].Key })
	if len(s.versions) > 0 { // nil when empty: unversioned snapshots stay byte-stable
		snap.Versions = maps.Clone(s.versions)
	}
	return snap
}

// restoreSnapshot builds the state a snapshot holds.
func restoreSnapshot(s *wal.Snapshot) (*state, error) {
	st := newState()
	for _, u := range s.Users {
		st.users[u.Name] = &User{Name: u.Name, Email: u.Email, Created: u.Created}
	}
	for _, t := range s.Tables {
		tbl, err := t.Data.Table()
		if err != nil {
			return nil, fmt.Errorf("catalog: restore table %q: %w", t.Key, err)
		}
		st.baseTables[t.Key] = tbl
	}
	for _, sd := range s.Datasets {
		q, err := sqlparser.Parse(sd.SQL)
		if err != nil {
			return nil, fmt.Errorf("catalog: restore dataset %s.%s: %w", sd.Owner, sd.Name, err)
		}
		ds := &Dataset{
			Owner: sd.Owner, Name: sd.Name,
			SQL: sd.SQL, Query: q,
			Meta:         Meta{Description: sd.Description, Tags: sd.Tags},
			IsWrapper:    sd.IsWrapper,
			SharedWith:   map[string]bool{},
			Created:      sd.Created,
			Deleted:      sd.Deleted,
			DOI:          sd.DOI,
			Materialized: sd.Materialized,
			OriginalSQL:  sd.OriginalSQL,
		}
		if sd.Public {
			ds.Visibility = Public
		}
		for _, u := range sd.SharedWith {
			ds.SharedWith[u] = true
		}
		st.datasets[ds.FullName()] = ds
	}
	for _, sm := range s.Macros {
		mac, err := parseMacro(sm.Owner, sm.Name, sm.Template)
		if err != nil {
			return nil, fmt.Errorf("catalog: restore macro %s.%s: %w", sm.Owner, sm.Name, err)
		}
		st.macros[sm.Owner+"."+sm.Name] = mac
	}
	maps.Copy(st.versions, s.Versions)
	return st, nil
}

// Fingerprint returns a canonical hash of the catalog's durable state —
// users, datasets (including grants), macros, and base-table contents. Two
// catalogs with equal fingerprints are indistinguishable to every read path,
// which is exactly what the crash tests assert about a recovered catalog.
// Previews are not state: each is a read of what is hashed here. The query
// log is deliberately excluded: history has
// its own durability story (the JSONL history log).
func (c *Catalog) Fingerprint() string {
	h := sha256.New()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	s := c.state.Load().capture(c.clock())
	for _, u := range s.Users {
		w("user", u.Name, u.Email, u.Created.UTC().Format(time.RFC3339Nano))
	}
	for _, d := range s.Datasets {
		w("dataset", d.Owner, d.Name, d.SQL, d.Description,
			fmt.Sprint(d.Tags), fmt.Sprint(d.IsWrapper), fmt.Sprint(d.Public),
			fmt.Sprint(d.SharedWith), d.Created.UTC().Format(time.RFC3339Nano),
			fmt.Sprint(d.Deleted), d.DOI, fmt.Sprint(d.Materialized), d.OriginalSQL)
	}
	var versioned []string
	for name := range s.Versions {
		versioned = append(versioned, name)
	}
	sort.Strings(versioned)
	for _, name := range versioned {
		w("version", name, fmt.Sprint(s.Versions[name]))
	}
	for _, m := range s.Macros {
		w("macro", m.Owner, m.Name, m.Template)
	}
	// The cells are read through Data, not the encoder snapshots use, so
	// the crash tests compare recovered state against an independent walk.
	for _, t := range s.Tables {
		data := t.Table.Data()
		w("table", t.Key, data.Name)
		for _, col := range data.Cols {
			w("col", col.Name, fmt.Sprint(col.Type))
		}
		for _, row := range data.Rows {
			for _, v := range row {
				w("cell", fmt.Sprint(v.T), fmt.Sprint(v.N), fmt.Sprint(v.I),
					fmt.Sprint(v.F), v.S, v.TS)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
