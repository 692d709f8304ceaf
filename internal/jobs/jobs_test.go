package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// oneCell is a one-column, one-row result holding s.
func oneCell(s string) *engine.Result {
	return &engine.Result{
		Cols: []engine.ColMeta{{Name: "v"}},
		Rows: []storage.Row{{sqltypes.NewString(s)}},
	}
}

// poll runs one status request against the table and decodes the answer.
func poll(t *testing.T, tbl *Table, ctx context.Context, id, user, query string) (int, map[string]any) {
	t.Helper()
	r := httptest.NewRequest("GET", "/api/queries/"+id+query, nil).WithContext(ctx)
	w := httptest.NewRecorder()
	tbl.ServeStatus(w, r, id, user)
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("poll %s: undecodable body %q: %v", id, w.Body.String(), err)
	}
	return w.Code, body
}

func (t *Table) retained() (count int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.finished), t.bytes
}

func TestStatusAnswers(t *testing.T) {
	tbl := &Table{}
	bg := context.Background()

	j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "trace-7")
	if j.ID != "q-1" {
		t.Fatalf("first id = %q, want q-1", j.ID)
	}
	code, body := poll(t, tbl, bg, j.ID, "alice", "")
	if code != 200 || body["status"] != "running" || body["traceId"] != "trace-7" {
		t.Fatalf("running answer: %d %v", code, body)
	}
	if _, has := body["cache"]; has {
		t.Fatalf("running answer carries a cache disposition: %v", body)
	}

	j.Record = &history.Entry{Cache: "miss"}
	j.Finish(&engine.Result{
		Cols: []engine.ColMeta{{Name: "a"}, {Name: "b"}},
		Rows: []storage.Row{{sqltypes.NewInt(1), sqltypes.NewString("<x>")}},
	})
	code, body = poll(t, tbl, bg, j.ID, "alice", "")
	if code != 200 || body["status"] != "done" || body["cache"] != "miss" {
		t.Fatalf("done answer: %d %v", code, body)
	}
	if got := fmt.Sprint(body["columns"], body["rows"]); got != "[a b] [[1 <x>]]" {
		t.Fatalf("rendered result = %s", got)
	}

	// Another user's poll is refused, whatever the job's state.
	if code, body = poll(t, tbl, bg, j.ID, "mallory", ""); code != http.StatusForbidden || body["code"] != "query_forbidden" {
		t.Fatalf("wrong-user poll: %d %v, want 403 query_forbidden", code, body)
	}
	if _, has := body["rows"]; has {
		t.Fatal("wrong-user poll leaked rows")
	}

	// Ids the table never issued are 404 — not-yet-issued numbers,
	// non-canonical spellings, and foreign prefixes alike.
	for _, id := range []string{"q-2", "q-01", "q-+1", "q-0", "q--1", "n1-q-1", "1", "q-", "q-x"} {
		if code, body = poll(t, tbl, bg, id, "alice", ""); code != http.StatusNotFound || body["code"] != "query_unknown" {
			t.Errorf("poll %q: %d %v, want 404 query_unknown", id, code, body)
		}
	}

	failed := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	failed.Fail(errors.New("boom"))
	if code, body = poll(t, tbl, bg, failed.ID, "alice", ""); code != 200 || body["status"] != "failed" || body["error"] != "boom" {
		t.Fatalf("failed answer: %d %v", code, body)
	}
	// Resource-limit aborts are the client's to fix: 422.
	aborted := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	aborted.Fail(fmt.Errorf("scan: %w", engine.ErrRowLimit))
	if code, body = poll(t, tbl, bg, aborted.ID, "alice", ""); code != http.StatusUnprocessableEntity || body["status"] != "failed" {
		t.Fatalf("aborted answer: %d %v", code, body)
	}
}

func TestKill(t *testing.T) {
	tbl := &Table{}
	j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	j.Fail(fmt.Errorf("scan: %w (id %s)", ErrKilled, j.ID))
	if code, body := poll(t, tbl, context.Background(), j.ID, "alice", ""); code != 200 || body["status"] != "killed" {
		t.Fatalf("killed answer: %d %v", code, body)
	}
}

// TestRetentionByCount: past the finished-job cap the oldest ids answer 410
// and the retained set stays within both bounds; a job that is still running
// outlives any number of later finishes.
func TestRetentionByCount(t *testing.T) {
	tbl := &Table{}
	bg := context.Background()
	running := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	first := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	first.Finish(oneCell("first"))
	var last *Job
	for i := 0; i < maxFinished+50; i++ {
		last = tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
		if i%2 == 0 {
			last.Finish(oneCell("x"))
		} else {
			last.Fail(errors.New("nope"))
		}
		if n, b := tbl.retained(); n > maxFinished || b > maxResultBytes {
			t.Fatalf("after %d finishes: retained %d jobs / %d bytes, bounds %d / %d", i+2, n, b, maxFinished, maxResultBytes)
		}
	}
	if n, _ := tbl.retained(); n != maxFinished {
		t.Fatalf("retained %d finished jobs, want the cap %d", n, maxFinished)
	}
	code, body := poll(t, tbl, bg, first.ID, "alice", "")
	if code != http.StatusGone || body["code"] != "query_expired" {
		t.Fatalf("aged-out id: %d %v, want 410 query_expired", code, body)
	}
	// Expiry is decided before ownership: there is no job left to own.
	if code, _ = poll(t, tbl, bg, first.ID, "mallory", ""); code != http.StatusGone {
		t.Fatalf("aged-out id, other user: %d, want 410", code)
	}
	if code, body = poll(t, tbl, bg, last.ID, "alice", ""); code != 200 || body["status"] != "failed" {
		t.Fatalf("newest job: %d %v", code, body)
	}
	if code, body = poll(t, tbl, bg, running.ID, "alice", ""); code != 200 || body["status"] != "running" {
		t.Fatalf("running job after %d later finishes: %d %v", maxFinished+51, code, body)
	}
	tbl.mu.Lock()
	held := len(tbl.jobs)
	tbl.mu.Unlock()
	if held != maxFinished+1 {
		t.Fatalf("table holds %d jobs, want %d finished + 1 running", held, maxFinished)
	}
}

// TestRetentionByBytes: large results age out on the byte budget long before
// the count cap, and one result over the whole budget is still pollable. The
// sizes are handed to retire directly — rendering 128 MiB of JSON would
// prove nothing more — after one real Finish shows what size it charges.
func TestRetentionByBytes(t *testing.T) {
	tbl := &Table{}
	bg := context.Background()
	first := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	first.Finish(oneCell("abc"))
	if _, b := tbl.retained(); b != int64(len(`["v"]`)+len(`[["abc"]]`)) {
		t.Fatalf("a finished job is charged %d bytes, want its rendered columns + rows", b)
	}

	const size = 4 << 20
	n := maxResultBytes/size + 8
	for i := 0; i < n; i++ {
		tbl.retire(tbl.Create(context.Background(), "alice", "SELECT 1", 1, ""), size)
		if c, b := tbl.retained(); b > maxResultBytes || c > maxFinished {
			t.Fatalf("retained %d jobs / %d bytes, bounds %d / %d", c, b, maxFinished, maxResultBytes)
		}
	}
	if c, _ := tbl.retained(); c != maxResultBytes/size {
		t.Fatalf("retained %d of %d large results, want the %d the budget holds", c, n, maxResultBytes/size)
	}
	if code, body := poll(t, tbl, bg, first.ID, "alice", ""); code != http.StatusGone {
		t.Fatalf("aged-out result: %d %v, want 410", code, body["code"])
	}

	huge := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
	tbl.retire(huge, maxResultBytes+1)
	if c, _ := tbl.retained(); c != 1 {
		t.Fatalf("an over-budget result left %d finished jobs retained, want itself only", c)
	}
	if _, jerr := tbl.Find(huge.ID, "alice"); jerr != nil {
		t.Fatalf("over-budget result is not pollable: %v", jerr)
	}
	tbl.Create(context.Background(), "alice", "SELECT 1", 1, "").Finish(oneCell("next"))
	if _, jerr := tbl.Find(huge.ID, "alice"); jerr == nil || jerr.Status != http.StatusGone {
		t.Fatalf("over-budget result after the next finish: %v, want 410", jerr)
	}
	if _, b := tbl.retained(); b > maxResultBytes {
		t.Fatalf("retained %d bytes after the over-budget result aged out", b)
	}
}

func TestLongPoll(t *testing.T) {
	tbl := &Table{}
	bg := context.Background()

	t.Run("returns on finish", func(t *testing.T) {
		j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
		time.AfterFunc(30*time.Millisecond, func() { j.Finish(oneCell("late")) })
		start := time.Now()
		code, body := poll(t, tbl, bg, j.ID, "alice", "?wait=20s")
		if code != 200 || body["status"] != "done" || body["rows"] == nil {
			t.Fatalf("long-poll: %d %v", code, body)
		}
		// A second long-poll on the ended job does not block either.
		poll(t, tbl, bg, j.ID, "alice", "?wait=20s")
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("long-polls on a finishing job took %v", elapsed)
		}
	})

	t.Run("returns on timeout", func(t *testing.T) {
		j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
		defer j.Fail(errors.New("test over"))
		start := time.Now()
		code, body := poll(t, tbl, bg, j.ID, "alice", "?wait=40ms")
		if code != 200 || body["status"] != "running" {
			t.Fatalf("timed-out long-poll: %d %v", code, body)
		}
		if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
			t.Fatalf("wait=40ms took %v", elapsed)
		}
	})

	t.Run("returns on client cancel", func(t *testing.T) {
		j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
		defer j.Fail(errors.New("test over"))
		ctx, cancel := context.WithCancel(bg)
		time.AfterFunc(30*time.Millisecond, cancel)
		start := time.Now()
		code, body := poll(t, tbl, ctx, j.ID, "alice", "?wait=20s")
		if code != 200 || body["status"] != "running" {
			t.Fatalf("canceled long-poll: %d %v", code, body)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("canceled long-poll took %v", elapsed)
		}
	})

	t.Run("is capped", func(t *testing.T) {
		old := maxWait
		maxWait = 50 * time.Millisecond
		defer func() { maxWait = old }()
		j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
		defer j.Fail(errors.New("test over"))
		start := time.Now()
		code, body := poll(t, tbl, bg, j.ID, "alice", "?wait=1h")
		if code != 200 || body["status"] != "running" {
			t.Fatalf("capped long-poll: %d %v", code, body)
		}
		if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
			t.Fatalf("capped long-poll took %v, want ~50ms", elapsed)
		}
	})

	t.Run("rejects malformed waits", func(t *testing.T) {
		j := tbl.Create(context.Background(), "alice", "SELECT 1", 1, "")
		defer j.Fail(errors.New("test over"))
		for _, w := range []string{"bogus", "-1s", "10"} {
			if code, _ := poll(t, tbl, bg, j.ID, "alice", "?wait="+w); code != http.StatusBadRequest {
				t.Errorf("wait=%q: got %d, want 400", w, code)
			}
		}
	})
}

// TestConcurrentLifecycle drives create, finish, fail, kill and polls from
// many goroutines at once; run under -race.
func TestConcurrentLifecycle(t *testing.T) {
	tbl := &Table{}
	bg := context.Background()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithCancelCause(bg)
				j := tbl.Create(context.Background(), user, "SELECT 1", 1, "")
				ended := make(chan struct{})
				go func() {
					defer close(ended)
					if i%3 == 0 {
						<-ctx.Done()
						j.Fail(context.Cause(ctx))
						return
					}
					j.Record = &history.Entry{Cache: "miss"}
					j.Finish(oneCell(j.ID))
				}()
				if i%3 == 0 {
					cancel(fmt.Errorf("%w (id %s)", ErrKilled, j.ID))
				}
				code, body := poll(t, tbl, bg, j.ID, user, "?wait=20s")
				want := "done"
				if i%3 == 0 {
					want = "killed"
				}
				if code != 200 || body["status"] != want {
					t.Errorf("%s: %d %v, want %s", j.ID, code, body["status"], want)
				}
				if code, _ := poll(t, tbl, bg, j.ID, "other", ""); code != http.StatusForbidden {
					t.Errorf("%s polled by another user: %d, want 403", j.ID, code)
				}
				<-ended
				cancel(nil)
			}
		}(w)
	}
	wg.Wait()
	if n, _ := tbl.retained(); n != workers*perWorker {
		t.Fatalf("retained %d finished jobs, want %d", n, workers*perWorker)
	}
}
