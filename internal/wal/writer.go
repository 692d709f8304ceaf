package wal

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"sqlshare/internal/obs"
	"time"
)

// SyncMode selects the durability/latency trade-off of the Writer.
type SyncMode int

const (
	// SyncGroup (the default) makes every Append wait for an fsync, but a
	// single sync goroutine batches all appenders that arrived while the
	// previous fsync was in flight — one disk flush commits the whole
	// group. Durable against OS crash; throughput scales with concurrency.
	SyncGroup SyncMode = iota
	// SyncNone never fsyncs on append (the OS flushes eventually). Durable
	// against process death only; used by tests and bulk loads.
	SyncNone
)

// ErrWriterClosed is returned by operations on a closed Writer.
var ErrWriterClosed = errors.New("wal: writer is closed")

// batchMax caps how many pending appends one fsync commits. 256 keeps the
// latency of the last writer in a batch bounded even under extreme load.
const batchMax = 256

type appendReq struct {
	data []byte   // framed record; nil for control requests
	lsn  uint64   // LSN carried by data
	swap *os.File // rotate: fsync+close the current file, continue on swap
	done chan error
}

// Writer appends records to the newest WAL segment. Append is safe for
// concurrent use; every successful Append returns only after the record is
// durable under the configured SyncMode. LSNs are assigned at append time
// in file order.
type Writer struct {
	mode SyncMode

	mu      sync.Mutex // LSN assignment + enqueue order + lifecycle
	nextLSN uint64
	closed  bool
	reqs    chan *appendReq
	syncerD sync.WaitGroup

	lastDurable atomic.Uint64 // highest LSN the syncer has committed; only the syncer stores it

	// Metrics are optional and attachable after recovery (the server's
	// registry does not exist yet when the writer opens).
	fsyncSeconds atomic.Pointer[obs.Histogram]
	records      atomic.Pointer[obs.Counter]
	bytes        atomic.Pointer[obs.Counter]

	f *os.File // owned by the syncer goroutine after start
}

// newWriter wraps an already-positioned segment file.
func newWriter(f *os.File, lastLSN uint64, mode SyncMode) *Writer {
	w := &Writer{
		mode:    mode,
		nextLSN: lastLSN,
		reqs:    make(chan *appendReq, batchMax),
		f:       f,
	}
	w.lastDurable.Store(lastLSN)
	w.syncerD.Add(1)
	go w.syncer()
	return w
}

// SetMetrics attaches the fsync-latency histogram and append counters.
// Passing nils detaches.
func (w *Writer) SetMetrics(fsyncSeconds *obs.Histogram, records, bytes *obs.Counter) {
	w.fsyncSeconds.Store(fsyncSeconds)
	w.records.Store(records)
	w.bytes.Store(bytes)
}

// LastLSN returns the highest durably committed LSN.
func (w *Writer) LastLSN() uint64 { return w.lastDurable.Load() }

// Append assigns rec the next LSN, writes it to the log and waits until it
// is durable (per the SyncMode). On error the record is not considered
// written and the caller must not apply its effect.
func (w *Writer) Append(rec *Record) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	rec.LSN = w.nextLSN + 1
	data, err := EncodeRecord(rec)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	w.nextLSN++
	req := &appendReq{data: data, lsn: rec.LSN, done: make(chan error, 1)}
	w.reqs <- req // under mu: enqueue order == LSN order
	w.mu.Unlock()
	return <-req.done
}

// Sync blocks until everything appended so far is flushed (and fsynced
// unless the mode is SyncNone).
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	req := &appendReq{done: make(chan error, 1)}
	w.reqs <- req
	w.mu.Unlock()
	return <-req.done
}

// Rotate fsyncs and closes the current segment and continues appending to a
// fresh segment at path (created with the WAL magic and made durable before
// any record lands in it).
func (w *Writer) Rotate(path string) error {
	f, err := createSegment(path)
	if err != nil {
		return err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		f.Close()
		return ErrWriterClosed
	}
	req := &appendReq{swap: f, done: make(chan error, 1)}
	w.reqs <- req
	w.mu.Unlock()
	if err := <-req.done; err != nil {
		f.Close()
		return err
	}
	return nil
}

// Close flushes and fsyncs outstanding records and closes the segment.
// Further appends return ErrWriterClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.reqs)
	w.mu.Unlock()
	w.syncerD.Wait()
	return nil
}

// syncer is the single goroutine that owns the segment file: it drains
// batches of pending appends, writes them with one file write each, and
// commits the whole batch with a single fsync (SyncGroup).
func (w *Writer) syncer() {
	defer w.syncerD.Done()
	for req := range w.reqs {
		batch := []*appendReq{req}
		// Yield once before draining: concurrent appenders that are already
		// runnable get to enqueue first, so one fsync commits the whole
		// group. Without this, a single-CPU scheduler hands the first
		// request straight to the syncer and every batch degenerates to one
		// record — group commit in name only.
		runtime.Gosched()
	drain:
		for len(batch) < batchMax {
			select {
			case r, ok := <-w.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		w.commit(batch)
	}
	// Closed: a final fsync makes Close a durability barrier.
	if w.f != nil {
		w.fsync()
		w.f.Close()
		w.f = nil
	}
}

// commit writes and flushes one batch, then wakes every waiter.
func (w *Writer) commit(batch []*appendReq) {
	var err error
	var maxLSN uint64
	var nrec, nbytes int64
	for _, r := range batch {
		switch {
		case r.swap != nil:
			if err == nil {
				err = w.fsync()
			}
			if err == nil {
				w.f.Close()
				w.f = r.swap
			}
		case r.data != nil:
			if err == nil {
				_, werr := w.f.Write(r.data)
				err = werr
			}
			if err == nil {
				if r.lsn > maxLSN {
					maxLSN = r.lsn
				}
				nrec++
				nbytes += int64(len(r.data))
			}
		}
		// Bare done channels (Sync) need no per-request work: the batch
		// fsync below is their barrier.
	}
	if err == nil {
		err = w.fsync()
	}
	if err == nil {
		// LSNs reach the syncer in order, so a batch's highest one is past
		// every earlier batch's; a batch of bare Syncs carries none.
		if maxLSN > 0 {
			w.lastDurable.Store(maxLSN)
		}
		if c := w.records.Load(); c != nil {
			c.Add(nrec)
		}
		if c := w.bytes.Load(); c != nil {
			c.Add(nbytes)
		}
	}
	for _, r := range batch {
		r.done <- err
	}
}

func (w *Writer) fsync() error {
	if w.mode == SyncNone {
		return nil
	}
	start := time.Now()
	err := w.f.Sync()
	if h := w.fsyncSeconds.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
	return err
}

// createSegment creates a fresh segment file with the WAL magic, durable
// (file and directory entry fsynced) before it is used.
func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs the directory containing path so renames and creations
// survive an OS crash.
func syncDir(path string) error {
	d, err := os.Open(dirOf(path))
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}
