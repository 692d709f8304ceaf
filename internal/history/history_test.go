package history

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
)

func rec(id int, user, sql string, at time.Time, runtimeMs float64) *Entry {
	return &Entry{
		ID:           id,
		Time:         at,
		User:         user,
		SQL:          sql,
		Runtime:      fromMillis(runtimeMs),
		RowsReturned: 1,
		Meta:         &plan.Metadata{OperatorCounts: map[string]int{"Clustered Index Scan": 1}},
		Datasets:     []string{user + ".t"},
	}
}

func TestRingBoundsAndRecentOrder(t *testing.T) {
	h, err := New(Config{RingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 10; i++ {
		h.Record(rec(i, "alice", fmt.Sprintf("SELECT %d", i), base.Add(time.Duration(i)*time.Second), 1))
	}
	if got := h.Size(); got != 4 {
		t.Fatalf("ring size = %d, want 4 (bounded)", got)
	}
	recent := h.Recent(100)
	if len(recent) != 4 {
		t.Fatalf("recent = %d records, want 4", len(recent))
	}
	// Newest first: 10, 9, 8, 7.
	for i, want := range []int{10, 9, 8, 7} {
		if recent[i].ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, recent[i].ID, want)
		}
	}
	if got := h.Recent(2); len(got) != 2 || got[0].ID != 10 {
		t.Errorf("recent(2) = %v", got)
	}
	// The analyzer saw every record, not just the surviving ring window.
	if s := h.Analyzer().Summarize(); s.Queries != 10 {
		t.Errorf("analyzer queries = %d, want 10", s.Queries)
	}
}

func TestSlowQueryLogAndMetric(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	m := obs.NewPlatformMetrics(obs.NewRegistry())
	slow, total := m.SlowQueries, m.HistoryRecords

	h, err := New(Config{
		SlowThreshold: 100 * time.Millisecond,
		Logger:        logger,
		Metrics:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	fast := rec(1, "alice", "SELECT 1", base, 5)
	slowRec := rec(2, "alice", "SELECT * FROM big", base.Add(time.Second), 250)
	slowRec.Digest = "abc123"
	h.Record(fast)
	h.Record(slowRec)

	out := buf.String()
	if strings.Contains(out, "SELECT 1") {
		t.Errorf("fast statement must not reach the slow-query log:\n%s", out)
	}
	for _, want := range []string{"slow query", "digest=abc123", "SELECT * FROM big"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, out)
		}
	}
	if got := slow.With("abc123").Value(); got != 1 {
		t.Errorf("slow_total{digest=abc123} = %d, want 1", got)
	}
	if got := total.Value(); got != 2 {
		t.Errorf("records_total = %d, want 2", got)
	}
	if got := h.Analyzer().SlowStatements(); len(got) != 1 || got[0].Digest != "abc123" {
		t.Errorf("analyzer slow statements = %v", got)
	}
	// A slow statement without a plan digest logs "none" instead of blank.
	buf.Reset()
	h.Record(rec(3, "alice", "BROKEN SQL", base.Add(2*time.Second), 500))
	if !strings.Contains(buf.String(), "digest=none") {
		t.Errorf("digest-less slow query should log digest=none:\n%s", buf.String())
	}
}

func TestHistoryTruncatesSlowSQL(t *testing.T) {
	long := "SELECT " + strings.Repeat("x", 1000)
	got := truncateSQL(long, 400)
	if len(got) != 403 { // 400 + "..."
		t.Errorf("truncated length = %d, want 403", len(got))
	}
	if !strings.HasSuffix(got, "...") {
		t.Errorf("truncated SQL should end with ellipsis: %q", got[len(got)-10:])
	}
	if got := truncateSQL("SELECT\n  1", 400); got != "SELECT 1" {
		t.Errorf("whitespace normalization = %q, want %q", got, "SELECT 1")
	}
}
