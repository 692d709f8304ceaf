package workload

import (
	"sort"
	"time"

	"sqlshare/internal/history"
)

// Session is one contiguous sitting of a user (see history.Sessionizer,
// which owns the idle-gap rule).
type Session = history.Session

// ComputeSessions splits the corpus into per-user sessions using the idle
// gap (0 uses history.DefaultSessionGap): the corpus in time order, replayed
// through the sessionizer the live analyzer runs. Sessions are returned in
// start order; each user's last one is still open.
func ComputeSessions(c *Corpus, gap time.Duration) []Session {
	entries := append([]*history.Entry(nil), c.Entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
	z := history.NewSessionizer(gap)
	var out []Session
	for _, e := range entries {
		if closed, ok := z.Add(e.User, e.Time, e.Datasets); ok {
			out = append(out, closed)
		}
	}
	out = append(out, z.Open()...)
	history.SortSessions(out)
	return out
}

// SessionSummary aggregates the session census.
type SessionSummary struct {
	Sessions          int
	MeanQueries       float64
	MedianDuration    time.Duration
	SingleQueryShare  float64 // fraction of sessions with exactly one query
	MultiDatasetShare float64 // fraction touching more than one dataset
}

// SummarizeSessions computes the session census for a corpus.
func SummarizeSessions(sessions []Session) SessionSummary {
	var sum SessionSummary
	sum.Sessions = len(sessions)
	if sum.Sessions == 0 {
		return sum
	}
	durations := make([]time.Duration, 0, len(sessions))
	queries, single, multi := 0, 0, 0
	for _, s := range sessions {
		queries += s.Queries
		durations = append(durations, s.Duration())
		if s.Queries == 1 {
			single++
		}
		if s.Datasets > 1 {
			multi++
		}
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	sum.MeanQueries = float64(queries) / float64(len(sessions))
	sum.MedianDuration = durations[len(durations)/2]
	sum.SingleQueryShare = float64(single) / float64(len(sessions))
	sum.MultiDatasetShare = float64(multi) / float64(len(sessions))
	return sum
}
