package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/obs"
)

// runInsights is the offline half of the workload-insights subsystem: it
// replays a server's JSONL query-history log through the same incremental
// analyzer that backs /api/insights/* and prints the §4–§7-style report.
// Because both paths fold identical entries through identical code, the
// aggregates here — the per-user resource usage included — match what the
// live server reported before it shut down.
func runInsights(w io.Writer, path string, gap, slow time.Duration) error {
	entries, err := history.ReadLog(path)
	if err != nil {
		return err
	}
	a := history.Replay(entries, gap, slow)

	s := a.Summarize()
	fmt.Fprintf(w, "== workload insights: %s (%d records) ==\n\n", path, len(entries))
	fmt.Fprintf(w, "-- summary --\n")
	fmt.Fprintf(w, "window              %s .. %s\n", stamp(s.Since), stamp(s.LastStatement))
	fmt.Fprintf(w, "queries             %d (%d failed)\n", s.Queries, s.Failed)
	fmt.Fprintf(w, "rows returned       %d\n", s.RowsReturned)
	fmt.Fprintf(w, "users               %d\n", s.Users)
	fmt.Fprintf(w, "distinct templates  %d (by plan digest)\n", s.DistinctTemplates)
	fmt.Fprintf(w, "sessions            %d (gap %s)\n", s.Sessions, gapOrDefault(gap))
	fmt.Fprintf(w, "mean runtime        %.3f ms  (p50 %.3f / p90 %.3f / p99 %.3f)\n",
		s.MeanRuntimeMs, s.P50Ms, s.P90Ms, s.P99Ms)
	fmt.Fprintf(w, "mean query length   %.1f chars\n", s.MeanLengthChars)

	fmt.Fprintf(w, "\n-- operator mix (Fig 9, live) --\n")
	for _, op := range a.OperatorMix() {
		fmt.Fprintf(w, "%-28s %6d  %5.1f%%\n", op.Operator, op.Count, op.Fraction*100)
	}

	fmt.Fprintf(w, "\n-- table touches (Fig 4, live) --\n")
	for _, t := range a.TableTouches() {
		fmt.Fprintf(w, "%-40s %6d touches, %d columns referenced\n", t.Table, t.Touches, len(t.Columns))
	}

	fmt.Fprintf(w, "\n-- users (§6.2, live) --\n")
	for _, u := range a.UserInsights() {
		atLeast := ""
		if u.DistinctQueriesAtLeast {
			atLeast = "+"
		}
		fmt.Fprintf(w, "%-20s %5d queries (%d failed), %d%s distinct, %d sessions, mean %.3f ms\n",
			u.User, u.Queries, u.Failed, u.DistinctQueries, atLeast, u.Sessions, u.MeanRuntimeMs)
	}

	writeUsage(w, a.Usage())

	fmt.Fprintf(w, "\n-- latency distribution --\n")
	writeHistogram(w, a.LatencyHistogram, func(b float64) string {
		return fmt.Sprintf("<= %gs", b)
	})

	fmt.Fprintf(w, "\n-- query length distribution (Fig 7, live) --\n")
	writeHistogram(w, a.LengthHistogram, func(b float64) string {
		return fmt.Sprintf("<= %g chars", b)
	})

	if slowList := a.SlowStatements(); len(slowList) > 0 {
		fmt.Fprintf(w, "\n-- slow statements (>= %s) --\n", slow)
		for _, sl := range slowList {
			fmt.Fprintf(w, "%s %-16s %10.3f ms  digest=%s  %s\n",
				stamp(sl.Time), sl.User, sl.Runtime.Seconds()*1000, orNone(sl.Digest), sl.SQL)
		}
	}

	if sessions := a.Sessions(); len(sessions) > 0 {
		fmt.Fprintf(w, "\n-- sessions (§7, live) --\n")
		for _, sess := range sessions {
			state := "closed"
			if sess.Open {
				state = "open"
			}
			fmt.Fprintf(w, "%-20s %s .. %s  %4d queries  %10.1f ms  %s\n",
				sess.User, stamp(sess.Start), stamp(sess.End), sess.Queries, sess.DurationMs, state)
		}
	}
	return nil
}

// writeUsage prints the replayed usage meter: what GET /api/insights/usage
// reported before shutdown.
func writeUsage(w io.Writer, snap obs.UsageSnapshot) {
	fmt.Fprintf(w, "\n-- resource usage (per user, replayed through the live meter) --\n")
	for _, u := range snap.Users {
		fmt.Fprintf(w, "%-20s %5d queries (%d failed, %d cache hits)  cpu %9.3fs  rows %9d  bytes %12d\n",
			u.User, u.Queries, u.Failed, u.CacheHits, u.CPUSeconds, u.Rows, u.Bytes)
	}
	if len(snap.Templates) > 0 {
		fmt.Fprintf(w, "\n-- resource usage (top templates by CPU) --\n")
		for _, t := range snap.Templates {
			fmt.Fprintf(w, "%-20s %5d queries  cpu %9.3fs  rows %9d  bytes %12d\n",
				t.Digest, t.Queries, t.CPUSeconds, t.Rows, t.Bytes)
		}
	}
}

func writeHistogram(w io.Writer, snap func() ([]float64, []int64), label func(float64) string) {
	bounds, counts := snap()
	for i, n := range counts {
		if n == 0 {
			continue
		}
		name := "+Inf"
		if i < len(bounds) && !math.IsInf(bounds[i], 1) {
			name = label(bounds[i])
		}
		fmt.Fprintf(w, "%-16s %6d\n", name, n)
	}
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format("2006-01-02 15:04:05")
}

func gapOrDefault(gap time.Duration) time.Duration {
	if gap <= 0 {
		return history.DefaultSessionGap
	}
	return gap
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
