package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segments are named wal-<first LSN, hex>.log so a directory listing sorts
// them in log order; snapshots are snap-<last covered LSN, hex>.snap.
// Rotation happens only at checkpoints, so every segment boundary is also a
// snapshot boundary.

// SegmentPath returns the path of the segment whose first record will be
// startLSN.
func SegmentPath(dir string, startLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", startLSN))
}

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", lsn))
}

func dirOf(path string) string { return filepath.Dir(path) }

// parseSeq extracts the hex sequence number from a "prefix-<hex>.suffix"
// file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

type segmentInfo struct {
	path     string
	startLSN uint64
}

// listSegments returns the directory's WAL segments sorted by start LSN.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		if lsn, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, segmentInfo{path: filepath.Join(dir, e.Name()), startLSN: lsn})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].startLSN < segs[j].startLSN })
	return segs, nil
}

// GapError reports a hole in the LSN sequence: the log jumps from After to
// Before, so records After+1 through Before-1 are missing. The message
// names the missing range and the segment files bounding it, so an
// operator knows exactly which segment range to backfill — "log is missing
// records" alone left callers guessing.
type GapError struct {
	// After and Before bound the hole: every LSN in (After, Before) is
	// missing.
	After, Before uint64
	// Segment is the file in which the too-new record was found.
	Segment string
	// PrevSegment is the newest segment whose records precede the hole
	// ("" when the hole starts at the scan's base LSN, i.e. the segment
	// that should follow the snapshot is gone).
	PrevSegment string
}

func (e *GapError) Error() string {
	where := fmt.Sprintf("before %s", e.Segment)
	switch e.PrevSegment {
	case "":
	case e.Segment:
		where = fmt.Sprintf("within %s", e.Segment)
	default:
		where = fmt.Sprintf("between %s and %s", e.PrevSegment, e.Segment)
	}
	return fmt.Sprintf("wal: log is missing LSNs %d through %d: no segment %s covers them; backfill a segment starting at wal-%016x.log or recover from a snapshot at LSN >= %d",
		e.After+1, e.Before-1, where, e.After+1, e.Before-1)
}

// ScanResult is what recovery learned from reading the log directory.
type ScanResult struct {
	// Records holds every record with LSN > the afterLSN passed to ScanDir,
	// in log order with consecutive LSNs.
	Records []*Record
	// LastLSN is the highest LSN on disk (afterLSN if the log is empty).
	LastLSN uint64
	// TornBytes counts bytes discarded from the newest segment's tail — a
	// record a crash tore mid-append.
	TornBytes int64

	lastSegment  string // newest segment path; "" when the log is empty
	lastValidLen int64  // valid prefix length of that segment
}

// ScanDir reads every segment under dir and returns the records that
// post-date afterLSN (the snapshot's last covered LSN). A torn final record
// in the newest segment is tolerated and reported via TornBytes; a torn
// record anywhere else — or a gap in the LSN sequence above afterLSN — is
// corruption and an error.
func ScanDir(dir string, afterLSN uint64) (*ScanResult, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	res := &ScanResult{LastLSN: afterLSN}
	prevSegment := "" // segment holding the most recent in-sequence record
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		recs, validLen, err := DecodeAll(data)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", seg.path, err)
		}
		last := i == len(segs)-1
		if validLen < int64(len(data)) && !last {
			return nil, fmt.Errorf("wal: segment %s: torn record at offset %d in a non-final segment", seg.path, validLen)
		}
		for _, rec := range recs {
			if rec.LSN <= afterLSN {
				prevSegment = seg.path
				continue
			}
			if rec.LSN != res.LastLSN+1 {
				return nil, &GapError{After: res.LastLSN, Before: rec.LSN, Segment: seg.path, PrevSegment: prevSegment}
			}
			prevSegment = seg.path
			res.Records = append(res.Records, rec)
			res.LastLSN = rec.LSN
		}
		if last {
			res.TornBytes = int64(len(data)) - validLen
			res.lastSegment = seg.path
			res.lastValidLen = validLen
		}
	}
	return res, nil
}

// OpenWriter opens the log for appending after a ScanDir: the newest
// segment is truncated to its valid prefix (discarding the torn tail) and
// reopened, or a first segment is created when the directory has none.
func OpenWriter(dir string, scan *ScanResult, mode SyncMode) (*Writer, error) {
	if scan.lastSegment == "" {
		f, err := createSegment(SegmentPath(dir, scan.LastLSN+1))
		if err != nil {
			return nil, err
		}
		return newWriter(f, scan.LastLSN, mode), nil
	}
	f, err := os.OpenFile(scan.lastSegment, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	// A segment torn before the magic completed is re-stamped from scratch.
	if scan.lastValidLen < int64(len(segmentMagic)) {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write([]byte(segmentMagic)); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := f.Truncate(scan.lastValidLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return newWriter(f, scan.LastLSN, mode), nil
}

// RemoveObsolete deletes snapshots beyond the keep newest and every segment
// whose records are all covered by the oldest retained snapshot. It is
// called after a checkpoint made a newer snapshot durable; failures are
// returned but recovery never depends on cleanup having run.
func RemoveObsolete(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	snaps, err := ListSnapshots(dir)
	if err != nil {
		return err
	}
	for _, s := range snaps[min(keep, len(snaps)):] {
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}
	// Until keep snapshots exist, the whole log is retained: the fallback
	// chain must end in "empty catalog + full replay", so the prefix only
	// becomes deletable once enough snapshots stand in front of it.
	if len(snaps) < keep {
		return nil
	}
	oldest := snaps[keep-1].LSN
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		// A segment is removable only when the next segment starts at or
		// below oldest+1 — then every record here is ≤ oldest and the
		// retained snapshots already contain its effects.
		if i+1 < len(segs) && segs[i+1].startLSN <= oldest+1 {
			if err := os.Remove(seg.path); err != nil {
				return err
			}
		}
	}
	return nil
}
