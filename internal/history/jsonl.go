package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Default persistence limits.
const (
	DefaultLogMaxBytes = 64 << 20
	DefaultLogKeep     = 3
)

// LogWriter appends entries to a JSONL file — one JSON object per line,
// the same line-delimited layout as the paper's released query corpus —
// rotating by size: when the current file would exceed maxBytes it is
// renamed to path.1 (shifting path.1 → path.2, …) and a fresh file is
// started. At most keep rotated generations are retained.
type LogWriter struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	keep     int
	f        *os.File
	size     int64
	onRotate func(rotatedTo string)
}

// NewLogWriter opens (creating or appending to) the JSONL log at path.
// maxBytes <= 0 uses DefaultLogMaxBytes; keep <= 0 uses DefaultLogKeep.
func NewLogWriter(path string, maxBytes int64, keep int) (*LogWriter, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultLogMaxBytes
	}
	if keep <= 0 {
		keep = DefaultLogKeep
	}
	w := &LogWriter{path: path, maxBytes: maxBytes, keep: keep}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *LogWriter) open() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.size = st.Size()
	return nil
}

// Append writes one entry as a JSON line, rotating first if the line
// would push the file past the size limit.
func (w *LogWriter) Append(e *Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("history: log writer is closed")
	}
	if w.size > 0 && w.size+int64(len(data)) > w.maxBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := w.f.Write(data)
	w.size += int64(n)
	return err
}

// rotateLocked shifts path.(i) → path.(i+1), drops the oldest generation,
// renames the live file to path.1 and reopens a fresh one.
func (w *LogWriter) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	os.Remove(gen(w.path, w.keep))
	for i := w.keep - 1; i >= 1; i-- {
		if _, err := os.Stat(gen(w.path, i)); err == nil {
			if err := os.Rename(gen(w.path, i), gen(w.path, i+1)); err != nil {
				return err
			}
		}
	}
	if err := os.Rename(w.path, gen(w.path, 1)); err != nil {
		return err
	}
	if err := w.open(); err != nil {
		return err
	}
	if w.onRotate != nil {
		w.onRotate(gen(w.path, 1))
	}
	return nil
}

func gen(path string, i int) string { return fmt.Sprintf("%s.%d", path, i) }

// Close closes the underlying file; further Appends fail.
func (w *LogWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReadLog reads the JSONL log at path, including any rotated generations,
// oldest entry first. A missing live file with existing generations is
// fine; a completely missing log is an error.
func ReadLog(path string) ([]*Entry, error) {
	var out []*Entry
	found := false
	// Oldest generation has the highest suffix; read high → low → live.
	var gens []string
	for i := 1; ; i++ {
		if _, err := os.Stat(gen(path, i)); err != nil {
			break
		}
		gens = append(gens, gen(path, i))
	}
	for i := len(gens) - 1; i >= 0; i-- {
		recs, err := readFile(gens[i])
		if err != nil {
			return nil, err
		}
		found = true
		out = append(out, recs...)
	}
	if recs, err := readFile(path); err == nil {
		found = true
		out = append(out, recs...)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("history: no log at %s", path)
	}
	return out, nil
}

func readFile(path string) ([]*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEntries(f)
}

// ReadEntries decodes line-delimited entries from r. Blank lines are
// skipped; a malformed line is an error (the writer emits one complete
// object per line, so partial lines indicate a truncated final write and
// are tolerated only at EOF).
func ReadEntries(r io.Reader) ([]*Entry, error) {
	var out []*Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		e := &Entry{}
		if err := json.Unmarshal(text, e); err != nil {
			// A torn final line (crash mid-append) is recoverable: stop
			// there and keep everything before it.
			if !sc.Scan() {
				break
			}
			return nil, fmt.Errorf("history: malformed record at line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
