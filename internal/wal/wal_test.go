package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

func testRecord(i int) *Record {
	return &Record{
		Op:   OpCreateUser,
		Time: time.Date(2016, 6, 26, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		CreateUser: &CreateUser{
			Name:  fmt.Sprintf("user%d", i),
			Email: fmt.Sprintf("user%d@uw.edu", i),
		},
	}
}

func openEmpty(t *testing.T, dir string, mode SyncMode) *Writer {
	t.Helper()
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, scan, mode)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFrameRoundTrip(t *testing.T) {
	rec := testRecord(1)
	rec.LSN = 42
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	file := append([]byte(segmentMagic), data...)
	recs, validLen, err := DecodeAll(file)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != int64(len(file)) {
		t.Errorf("validLen = %d, want %d", validLen, len(file))
	}
	if len(recs) != 1 || recs[0].LSN != 42 || recs[0].CreateUser.Name != "user1" {
		t.Errorf("decoded %+v", recs)
	}
}

func TestDecodeAllTornTail(t *testing.T) {
	var file []byte
	file = append(file, segmentMagic...)
	for i := 1; i <= 3; i++ {
		rec := testRecord(i)
		rec.LSN = uint64(i)
		data, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		file = append(file, data...)
	}
	whole := int64(len(file))

	// Chopping anywhere inside the third record must yield exactly two
	// records and a validLen at the second record's end.
	recs, _, err := DecodeAll(file)
	if err != nil || len(recs) != 3 {
		t.Fatalf("full decode: %d records, err %v", len(recs), err)
	}
	third, err := EncodeRecord(recs[2])
	if err != nil {
		t.Fatal(err)
	}
	boundary := whole - int64(len(third))
	for cut := boundary + 1; cut < whole; cut++ {
		recs, validLen, err := DecodeAll(file[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 2 || validLen != boundary {
			t.Fatalf("cut %d: %d records, validLen %d (want 2, %d)", cut, len(recs), validLen, boundary)
		}
	}

	// A flipped payload bit breaks the checksum: the record and everything
	// after it is the torn tail.
	corrupt := append([]byte(nil), file...)
	corrupt[boundary+frameHeaderSize] ^= 0xff
	recs, validLen, err := DecodeAll(corrupt)
	if err != nil || len(recs) != 2 || validLen != boundary {
		t.Errorf("corrupt: %d records, validLen %d, err %v", len(recs), validLen, err)
	}

	// Wrong magic is not a torn tail.
	bad := append([]byte("NOTAWAL0"), file[len(segmentMagic):]...)
	if _, _, err := DecodeAll(bad); err != ErrBadSegment {
		t.Errorf("bad magic: err = %v, want ErrBadSegment", err)
	}

	// Shorter than the magic decodes as empty (crash during creation).
	if recs, validLen, err := DecodeAll(file[:3]); err != nil || len(recs) != 0 || validLen != 0 {
		t.Errorf("short file: %d records, validLen %d, err %v", len(recs), validLen, err)
	}
}

func TestWriterAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	for i := 1; i <= 10; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.LastLSN() != 10 {
		t.Errorf("LastLSN = %d, want 10", w.LastLSN())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 10 || scan.LastLSN != 10 {
		t.Fatalf("scan: %d records, last %d", len(scan.Records), scan.LastLSN)
	}
	for i, rec := range scan.Records {
		if rec.LSN != uint64(i+1) || rec.CreateUser.Name != fmt.Sprintf("user%d", i+1) {
			t.Errorf("record %d: %+v", i, rec)
		}
	}
	// afterLSN skips the prefix.
	scan, err = ScanDir(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 3 || scan.Records[0].LSN != 8 {
		t.Errorf("afterLSN scan: %d records, first %d", len(scan.Records), scan.Records[0].LSN)
	}
}

func TestWriterConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncGroup)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(testRecord(g*each + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != writers*each || scan.LastLSN != writers*each {
		t.Fatalf("scan: %d records, last %d", len(scan.Records), scan.LastLSN)
	}
}

func TestWriterReopenAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	for i := 1; i <= 5; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	seg := SegmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 4 || scan.TornBytes == 0 {
		t.Fatalf("scan after tear: %d records, torn %d", len(scan.Records), scan.TornBytes)
	}
	// Reopening truncates the tail; appending continues at LSN 5.
	w, err = OpenWriter(dir, scan, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err = ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 5 || scan.LastLSN != 5 || scan.TornBytes != 0 {
		t.Fatalf("after reopen: %d records, last %d, torn %d", len(scan.Records), scan.LastLSN, scan.TornBytes)
	}
	if scan.Records[4].CreateUser.Name != "user99" {
		t.Errorf("replacement record: %+v", scan.Records[4])
	}
}

func TestWriterRotateAndScan(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	for i := 1; i <= 3; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(SegmentPath(dir, 4)); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments: %v, err %v", segs, err)
	}
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 6 || scan.LastLSN != 6 {
		t.Fatalf("scan: %d records, last %d", len(scan.Records), scan.LastLSN)
	}
}

func TestClosedWriterRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord(1)); err != ErrWriterClosed {
		t.Errorf("append after close: %v, want ErrWriterClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tbl := storage.NewTable("~base:alice.water", storage.Schema{
		{Name: "station", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	if err := tbl.Insert([]storage.Row{
		{sqltypes.NewString("s1"), sqltypes.NewFloat(1.5)},
		{sqltypes.NewString("s2"), sqltypes.TypedNull(sqltypes.Float)},
	}); err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{
		LSN:  7,
		Time: time.Date(2016, 6, 26, 12, 0, 0, 0, time.UTC),
		Users: []SnapUser{{Name: "alice", Email: "alice@uw.edu",
			Created: time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)}},
		Datasets: []SnapDataset{{
			Owner: "alice", Name: "water", SQL: "SELECT * FROM [~base:alice.water]",
			IsWrapper: true, Public: true, SharedWith: []string{"bob"},
			Created: time.Date(2012, 1, 1, 0, 1, 0, 0, time.UTC),
		}},
		Macros: []SnapMacro{{Owner: "alice", Name: "m", Template: "SELECT * FROM $t"}},
		Tables: []SnapTable{{Key: "~base:alice.water", Data: tbl.Data()}},
	}
	path, err := WriteSnapshot(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 7 || len(got.Users) != 1 || len(got.Datasets) != 1 || len(got.Macros) != 1 {
		t.Fatalf("loaded %+v", got)
	}
	if got.Tables[0].Key != "~base:alice.water" {
		t.Errorf("restored table key: %s", got.Tables[0].Key)
	}
	rt, err := got.Tables[0].Data.Table()
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumRows() != 2 {
		t.Errorf("restored table: %s, %d rows", rt.Name(), rt.NumRows())
	}

	// Any single-byte truncation must be detected, not half-loaded.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "snap-00000000000000aa.snap")
	if err := os.WriteFile(trunc, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(trunc); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
	// So must a flipped byte in the middle.
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0xff
	if err := os.WriteFile(trunc, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(trunc); err == nil {
		t.Error("corrupted snapshot loaded without error")
	}
}

func TestListSnapshotsNewestFirst(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{3, 12, 7} {
		if _, err := WriteSnapshot(dir, &Snapshot{LSN: lsn}); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || snaps[0].LSN != 12 || snaps[1].LSN != 7 || snaps[2].LSN != 3 {
		t.Errorf("snapshots: %+v", snaps)
	}
}

func TestRemoveObsolete(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	appendN := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := w.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three checkpoint cycles: snapshot at 3, 6, 9 with rotation after each.
	for cycle := 0; cycle < 3; cycle++ {
		appendN(cycle*3+1, cycle*3+3)
		lsn := uint64(cycle*3 + 3)
		if _, err := WriteSnapshot(dir, &Snapshot{LSN: lsn}); err != nil {
			t.Fatal(err)
		}
		if err := w.Rotate(SegmentPath(dir, lsn+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := RemoveObsolete(dir, 2); err != nil {
		t.Fatal(err)
	}
	snaps, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].LSN != 9 || snaps[1].LSN != 6 {
		t.Fatalf("retained snapshots: %+v", snaps)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Oldest retained snapshot covers LSN 6: the segment holding 1–3 is
	// removable, the ones from 4 on are not.
	for _, seg := range segs {
		if seg.startLSN < 4 {
			t.Errorf("segment %s should have been removed", seg.path)
		}
	}
	// Recovery from the oldest retained snapshot still works.
	scan, err := ScanDir(dir, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 3 || scan.LastLSN != 9 {
		t.Errorf("scan after cleanup: %d records, last %d", len(scan.Records), scan.LastLSN)
	}
}

func TestScanDirRejectsLSNGap(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	for i := 1; i <= 3; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the segment with the middle record missing.
	seg := SegmentPath(dir, 1)
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(segmentMagic)
	for _, rec := range []*Record{scan.Records[0], scan.Records[2]} {
		data, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	if err := os.WriteFile(seg, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanDir(dir, 0); err == nil {
		t.Error("scan of a log with an LSN gap should fail")
	}
}
