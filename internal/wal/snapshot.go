package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sqlshare/internal/storage"
)

// Snapshot is the full serialized catalog state as of LSN: everything a
// restart needs to rebuild the in-memory catalog without the log prefix the
// snapshot covers. Previews are not part of it: a preview is a read of the
// definitions and tables stored here, rendered on demand. (Snapshots
// written while previews were stored carry "preview…" keys, and snapshots
// written while cluster mode existed carry "shardMapEpoch"/"shardMap";
// decoding ignores both.)
type Snapshot struct {
	LSN      uint64        `json:"lsn"`
	Time     time.Time     `json:"ts"`
	Users    []SnapUser    `json:"users,omitempty"`
	Datasets []SnapDataset `json:"datasets,omitempty"`
	Macros   []SnapMacro   `json:"macros,omitempty"`
	Tables   []SnapTable   `json:"tables,omitempty"`
	// Versions carries the per-dataset monotonic content counters that
	// fence the result cache, so recovered counters continue — never
	// restart — and pre-crash cache keys can never be re-minted.
	Versions map[string]uint64 `json:"versions,omitempty"`
}

// SnapTable is a serialized base table plus the catalog key it is
// registered under (the hidden "~base:owner.name" name, distinct from the
// table's own name).
type SnapTable struct {
	Key  string             `json:"key"`
	Data *storage.TableData `json:"data"`
}

// SnapUser is a serialized catalog user.
type SnapUser struct {
	Name    string    `json:"name"`
	Email   string    `json:"email,omitempty"`
	Created time.Time `json:"created"`
}

// SnapDataset is a serialized dataset. The parsed query is reconstructed at
// restore time from SQL.
type SnapDataset struct {
	Owner        string    `json:"owner"`
	Name         string    `json:"name"`
	SQL          string    `json:"sql"`
	Description  string    `json:"description,omitempty"`
	Tags         []string  `json:"tags,omitempty"`
	IsWrapper    bool      `json:"isWrapper,omitempty"`
	Public       bool      `json:"public,omitempty"`
	SharedWith   []string  `json:"sharedWith,omitempty"`
	Created      time.Time `json:"created"`
	Deleted      bool      `json:"deleted,omitempty"`
	DOI          string    `json:"doi,omitempty"`
	Materialized bool      `json:"materialized,omitempty"`
	OriginalSQL  string    `json:"originalSql,omitempty"`
}

// SnapMacro is a serialized query macro.
type SnapMacro struct {
	Owner    string `json:"owner"`
	Name     string `json:"name"`
	Template string `json:"template"`
}

// SnapshotInfo locates one snapshot file.
type SnapshotInfo struct {
	Path string
	LSN  uint64
}

// ListSnapshots returns the directory's snapshots, newest (highest LSN)
// first.
func ListSnapshots(dir string) ([]SnapshotInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []SnapshotInfo
	for _, e := range entries {
		if lsn, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, SnapshotInfo{Path: filepath.Join(dir, e.Name()), LSN: lsn})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].LSN > snaps[j].LSN })
	return snaps, nil
}

// WriteSnapshot makes s durable in dir: the checksummed file is written to
// a temp name, fsynced, atomically renamed into place, and the directory
// entry fsynced. A crash at any point leaves either the old state or the
// complete new snapshot — never a half-written file under the final name.
func WriteSnapshot(dir string, s *Snapshot) (string, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("wal: encode snapshot: %w", err)
	}
	data := appendFrame([]byte(snapshotMagic), payload)
	final := snapshotPath(dir, s.LSN)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(final); err != nil {
		return "", err
	}
	return final, nil
}

// LoadSnapshot reads and validates one snapshot file. Any truncation,
// checksum mismatch or decode failure is an error — the caller falls back
// to an older snapshot.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("wal: %s: not a snapshot (bad magic)", path)
	}
	payload, frameLen, ok := decodeFrame(data[len(snapshotMagic):])
	if !ok || len(snapshotMagic)+frameLen != len(data) {
		return nil, fmt.Errorf("wal: %s: snapshot truncated or checksum mismatch", path)
	}
	s := &Snapshot{}
	if err := json.Unmarshal(payload, s); err != nil {
		return nil, fmt.Errorf("wal: %s: undecodable snapshot: %w", path, err)
	}
	return s, nil
}
