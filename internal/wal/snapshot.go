package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// SnapTable is a base table plus the catalog key it is registered under
// (the hidden "~base:owner.name" name, distinct from the table's own name).
// A snapshot being written holds Table, a reference to the catalog's own
// table: installed tables are never mutated, so the reference taken from
// the catalog state published at the snapshot's LSN is the table as of that
// LSN, and WriteSnapshot encodes it with no lock held. A loaded snapshot
// holds Data, the decoded form.
type SnapTable struct {
	Key  string             `json:"key"`
	Data *storage.TableData `json:"data"`

	Table *storage.Table `json:"-"`
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
//
// The payload is streamed: each table encodes itself into the file as it
// is reached, so no more than one table's bytes are in memory at once, and
// the frame header, which needs the payload's length and checksum, is
// written last. The file is byte-identical to the magic followed by one
// frame of json.Marshal(s) with every table's Data filled in.
func WriteSnapshot(dir string, s *Snapshot) (string, error) {
	final := snapshotPath(dir, s.LSN)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if err := writeSnapshotFile(f, s); err != nil {
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

// writeSnapshotFile writes the magic, a placeholder frame header and the
// streamed payload, then the real header over the placeholder, and fsyncs.
func writeSnapshotFile(f *os.File, s *Snapshot) error {
	if _, err := f.Write(make([]byte, len(snapshotMagic)+frameHeaderSize)); err != nil {
		return err
	}
	pw := &payloadWriter{w: bufio.NewWriterSize(f, 256<<10)}
	if err := encodeSnapshot(pw, s); err != nil {
		return err
	}
	if err := pw.w.Flush(); err != nil {
		return err
	}
	if pw.n > maxFrameSize {
		return fmt.Errorf("wal: snapshot payload of %d bytes exceeds the %d-byte frame limit", pw.n, maxFrameSize)
	}
	hdr := frameHeader(pw.n, pw.crc)
	if _, err := f.WriteAt(append([]byte(snapshotMagic), hdr[:]...), 0); err != nil {
		return err
	}
	return f.Sync()
}

// payloadWriter counts and checksums the payload on its way to the file.
type payloadWriter struct {
	w   *bufio.Writer
	n   int
	crc uint32
}

func (p *payloadWriter) Write(b []byte) (int, error) {
	p.n += len(b)
	p.crc = crc32.Update(p.crc, crcTable, b)
	return p.w.Write(b)
}

// encodeSnapshot writes the JSON form of s to w: the fields in Snapshot's
// declaration order, empty ones left out as omitempty leaves them out, and
// each table written by its own AppendJSON, one table at a time.
func encodeSnapshot(w io.Writer, s *Snapshot) error {
	buf := strconv.AppendUint(append(make([]byte, 0, 64<<10), `{"lsn":`...), s.LSN, 10)
	buf, err := appendField(buf, `,"ts":`, s.Time)
	if err == nil && len(s.Users) > 0 {
		buf, err = appendField(buf, `,"users":`, s.Users)
	}
	if err == nil && len(s.Datasets) > 0 {
		buf, err = appendField(buf, `,"datasets":`, s.Datasets)
	}
	if err == nil && len(s.Macros) > 0 {
		buf, err = appendField(buf, `,"macros":`, s.Macros)
	}
	if err != nil {
		return err
	}
	if len(s.Tables) > 0 {
		buf = append(buf, `,"tables":[`...)
		for i, st := range s.Tables {
			if st.Table == nil {
				return fmt.Errorf("wal: encode snapshot: table %q carries no live table", st.Key)
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendField(buf, `{"key":`, st.Key); err != nil {
				return err
			}
			buf = append(buf, `,"data":`...)
			buf = append(st.Table.AppendJSON(buf), '}')
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = append(buf, ']')
	}
	if len(s.Versions) > 0 {
		if buf, err = appendField(buf, `,"versions":`, s.Versions); err != nil {
			return err
		}
	}
	_, err = w.Write(append(buf, '}'))
	return err
}

// appendField appends key and then json.Marshal(v) to buf.
func appendField(buf []byte, key string, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("wal: encode snapshot: %w", err)
	}
	return append(append(buf, key...), b...), nil
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
