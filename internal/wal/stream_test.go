package wal

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// rewriteSegment replaces the segment file at path with magic + the given
// records, bypassing the Writer's LSN assignment.
func rewriteSegment(t *testing.T, path string, recs ...*Record) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(segmentMagic)
	for _, rec := range recs {
		data, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanDirGapErrorNamesMissingRange(t *testing.T) {
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
	scan, err := ScanDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Punch a hole: records 3 and 4 vanish from the middle of the segment.
	rewriteSegment(t, SegmentPath(dir, 1), scan.Records[0], scan.Records[1], scan.Records[4])

	_, err = ScanDir(dir, 0)
	if err == nil {
		t.Fatal("scan of a log missing LSNs 3-4 should fail")
	}
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("error should be a *GapError, got %T: %v", err, err)
	}
	if gap.After != 2 || gap.Before != 5 {
		t.Errorf("gap bounds = (%d, %d), want (2, 5)", gap.After, gap.Before)
	}
	if gap.Segment != SegmentPath(dir, 1) {
		t.Errorf("gap.Segment = %q, want %q", gap.Segment, SegmentPath(dir, 1))
	}
	// The message must name the missing LSN range and the segment to
	// backfill — the whole point of the typed error.
	for _, want := range []string{"missing LSNs 3 through 4", SegmentPath(dir, 1), "wal-0000000000000003.log"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err.Error(), want)
		}
	}
}

func TestScanDirGapErrorAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	w := openEmpty(t, dir, SyncNone)
	for i := 1; i <= 2; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate as a checkpoint would, then write more records; deleting the
	// second segment leaves a hole between segment files.
	if err := w.Rotate(SegmentPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= 4; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(SegmentPath(dir, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(SegmentPath(dir, 3)); err != nil {
		t.Fatal(err)
	}

	_, err := ScanDir(dir, 0)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("error should be a *GapError, got %T: %v", err, err)
	}
	if gap.After != 2 || gap.Before != 5 {
		t.Errorf("gap bounds = (%d, %d), want (2, 5)", gap.After, gap.Before)
	}
	if gap.PrevSegment != SegmentPath(dir, 1) || gap.Segment != SegmentPath(dir, 5) {
		t.Errorf("gap segments = (%q, %q), want (%q, %q)",
			gap.PrevSegment, gap.Segment, SegmentPath(dir, 1), SegmentPath(dir, 5))
	}
	if !strings.Contains(err.Error(), "between "+SegmentPath(dir, 1)+" and "+SegmentPath(dir, 5)) {
		t.Errorf("error %q should name the bounding segments", err.Error())
	}
}
