package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
	"sqlshare/internal/wal"
)

// dataSnapshot captures c and decodes every table reference into its Data
// form: the snapshot json.Marshal encoded before tables encoded themselves,
// and the oracle the streamed file is held to.
func dataSnapshot(c *Catalog) *wal.Snapshot {
	s := c.state.Load().capture(c.clock())
	for i := range s.Tables {
		s.Tables[i].Data = s.Tables[i].Table.Data()
		s.Tables[i].Table = nil
	}
	return s
}

// edgeTable holds the cells an encoder is most likely to get wrong: NULLs
// of every type, non-finite and exponent-range floats, strings JSON must
// escape (quotes, control bytes, HTML, U+2028, invalid UTF-8) and
// DATETIMEs before 1970 and with nanoseconds.
func edgeTable(t testing.TB, name string) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(name, storage.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: `f "<&>"`, Type: sqltypes.Float},
		{Name: "s", Type: sqltypes.String},
		{Name: "d", Type: sqltypes.DateTime},
		{Name: "b", Type: sqltypes.Bool},
	})
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21, -2.5, 0, math.Copysign(0, -1)}
	strs := []string{"", `"q"\`, "<a&b>", "tab\tnl\n\x01", "\u2028\u2029", "bad\xffutf8", "日本語"}
	var rows []storage.Row
	for i := 0; i < 24; i++ {
		row := storage.Row{
			sqltypes.NewInt(int64(i - 12)),
			sqltypes.NewFloat(floats[i%len(floats)]),
			sqltypes.NewString(strs[i%len(strs)]),
			sqltypes.NewDateTime(time.Date(1960+i*5, 3, 1, 2, 3, 4, i*37, time.UTC)),
			sqltypes.NewBool(i%2 == 0),
		}
		if i%5 == 0 {
			row[1+i%4] = sqltypes.TypedNull(row[1+i%4].Type())
		}
		rows = append(rows, row)
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSnapshotFileMatchesMarshal: after a workload that journals every
// record op, the streamed checkpoint file is byte for byte the magic plus
// one frame of json.Marshal of the Data-built snapshot.
func TestSnapshotFileMatchesMarshal(t *testing.T) {
	c, d := openDurable(t, t.TempDir(), nil)
	defer d.Close()
	at := time.Date(2016, 6, 26, 12, 0, 0, 0, time.UTC)
	c.SetClock(func() time.Time { return at })
	for _, step := range scriptedWorkload(t) {
		step.fn(t, c)
	}
	if _, err := c.CreateDatasetFromTable("bob", "edges", edgeTable(t, "edges"), Meta{}); err != nil {
		t.Fatal(err)
	}
	oracle := dataSnapshot(c)
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	oracle.LSN = stats.LSN
	payload, err := json.Marshal(oracle)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("SQLSSNP1")
	want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	want = append(want, payload...)
	got, err := os.ReadFile(stats.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Tables) != 5 {
		t.Fatalf("snapshot holds %d tables, want 5", len(oracle.Tables))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot file (%d bytes) differs from magic + frame(json.Marshal) (%d bytes)", len(got), len(want))
	}
}

// recordingJournal checks each live record against the record its tables'
// Data would have made, instead of making it durable.
type recordingJournal struct {
	t   *testing.T
	lsn uint64
	ops map[string]int
}

func (j *recordingJournal) Append(rec *wal.Record) error {
	j.lsn++
	rec.LSN = j.lsn
	j.ops[rec.Op]++
	got, err := wal.EncodeRecord(rec)
	if err != nil {
		return err
	}
	oracle := *rec
	switch {
	case rec.CreateDataset != nil:
		p := *rec.CreateDataset
		if p.TableJSON == nil || p.Table != nil {
			j.t.Errorf("LSN %d %s: live record carries no pre-encoded table", rec.LSN, rec.Op)
		}
		p.Table, p.TableJSON = p.LiveTable.Data(), nil
		oracle.CreateDataset = &p
	case rec.Materialize != nil:
		p := *rec.Materialize
		if p.TableJSON == nil || p.Table != nil {
			j.t.Errorf("LSN %d %s: live record carries no pre-encoded table", rec.LSN, rec.Op)
		}
		p.Table, p.TableJSON = p.LiveTable.Data(), nil
		oracle.Materialize = &p
	}
	want, err := wal.EncodeRecord(&oracle)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		j.t.Errorf("LSN %d %s: live record differs from its Data-built encoding:\n got %q\nwant %q", rec.LSN, rec.Op, got, want)
	}
	return nil
}

// TestLiveRecordsMatchData: the create_dataset, materialize and
// materialize_in_place records the live path journals, with their tables
// encoded by AppendJSON, are byte-identical to the same records built from
// Data.
func TestLiveRecordsMatchData(t *testing.T) {
	c := New()
	j := &recordingJournal{t: t, ops: map[string]int{}}
	c.SetJournal(j)
	for _, step := range scriptedWorkload(t) {
		step.fn(t, c)
	}
	if _, err := c.CreateDatasetFromTable("bob", "edges", edgeTable(t, "edges"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Materialize("bob", "edges", "edgesnap"); err != nil {
		t.Fatal(err)
	}
	for op, n := range map[string]int{wal.OpCreateDataset: 3, wal.OpMaterialize: 2, wal.OpMaterializeInPlace: 1} {
		if j.ops[op] != n {
			t.Errorf("%d %s records, want %d", j.ops[op], op, n)
		}
	}
}

// TestCaptureTouchesNoCell: a checkpoint's capture of the state it loaded
// allocates the same for a 1,000-row table as for a 100,000-row one — it
// takes references, and encodes nothing.
func TestCaptureTouchesNoCell(t *testing.T) {
	allocs := func(rows int) float64 {
		c := New()
		if _, err := c.CreateUser("alice", ""); err != nil {
			t.Fatal(err)
		}
		tbl := storage.NewTable("t", storage.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "s", Type: sqltypes.String}})
		batch := make([]storage.Row, rows)
		for i := range batch {
			batch[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("x")}
		}
		if err := tbl.Insert(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateDatasetFromTable("alice", "t", tbl, Meta{}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			c.state.Load().capture(time.Time{})
		})
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Fatalf("capture allocates %.0f times for 1,000 rows but %.0f for 100,000", small, large)
	}
}

// copyDataDir copies a live data directory's files: what a kill -9 leaves
// on disk, since every acknowledged record has been written.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointRacesMutations: checkpoints run back to back while uploads,
// appends and materializations land (run it under -race). A copy of the
// directory taken afterwards, as a kill would leave it, recovers to the
// live catalog.
func TestCheckpointRacesMutations(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, &DurableOptions{SyncMode: wal.SyncNone})
	defer d.Close()
	if _, err := c.CreateUser("alice", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "base", seedTable(t, "base"), Meta{}); err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	uploads := make([]*storage.Table, rounds)
	for i := range uploads {
		uploads[i] = seedTable(t, fmt.Sprintf("u%d", i))
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	checkpoints := 0
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			checkpoints++
		}
	}()
	var mutators sync.WaitGroup
	mutators.Add(2)
	go func() {
		defer mutators.Done()
		for i, tbl := range uploads {
			name := fmt.Sprintf("u%d", i)
			if _, err := c.CreateDatasetFromTable("alice", name, tbl, Meta{}); err != nil {
				t.Error(err)
				return
			}
			if err := c.Append("alice", "base", name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer mutators.Done()
		for i := 0; i < rounds; i++ {
			if _, err := c.Materialize("alice", "base", fmt.Sprintf("snap%d", i)); err != nil {
				t.Error(err)
				return
			}
			view := fmt.Sprintf("v%d", i)
			if _, err := c.SaveView("alice", view, "SELECT station FROM base WHERE val > 1", Meta{}); err != nil {
				t.Error(err)
				return
			}
			if err := c.MaterializeInPlace("alice", view); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	mutators.Wait()
	close(stop)
	<-stopped
	if t.Failed() {
		return
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint ran")
	}
	want := c.Fingerprint()
	rc, rd, err := OpenDurable(copyDataDir(t, dir), &DurableOptions{SyncMode: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.RecoveryStats().SnapshotLSN == 0 {
		t.Error("recovery restored no snapshot")
	}
	if got := rc.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != live %s", got, want)
	}
}
