package history

import (
	"sort"
	"time"
)

// Session analysis after Singh et al.'s SkyServer traffic report, which
// the paper builds on (§7: "analyzed traffic and sessions by duration,
// usage pattern over time"): consecutive queries by one user separated by
// no more than an idle gap form a session.

// DefaultSessionGap is the idle threshold separating sessions — the
// conventional 30 minutes of web-log analysis, as in §7.
const DefaultSessionGap = 30 * time.Minute

// Session is one contiguous sitting of a user, closed or still open.
type Session struct {
	User    string    `json:"user"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Queries int       `json:"queries"`
	// Datasets counts the distinct datasets the session touched.
	Datasets   int     `json:"datasets"`
	DurationMs float64 `json:"durationMs"`
	Open       bool    `json:"open,omitempty"`
}

// Duration returns the session's wall-clock span.
func (s Session) Duration() time.Duration { return s.End.Sub(s.Start) }

// Sessionizer is the idle-gap rule as an incremental fold: statements go in
// one at a time, in time order per user, and a session comes out when the
// statement after it arrives more than the gap later. The live analyzer and
// the batch census (workload.ComputeSessions) both run on it.
type Sessionizer struct {
	gap  time.Duration
	open map[string]*sitting // by user
}

// sitting is a user's session in flight.
type sitting struct {
	Session
	seen map[string]struct{} // datasets touched
}

// NewSessionizer creates a sessionizer; gap <= 0 uses DefaultSessionGap.
func NewSessionizer(gap time.Duration) *Sessionizer {
	if gap <= 0 {
		gap = DefaultSessionGap
	}
	return &Sessionizer{gap: gap, open: map[string]*sitting{}}
}

// Add folds one statement in. When the statement's idle gap ends the user's
// session in flight, Add returns that session and ok is true.
func (z *Sessionizer) Add(user string, at time.Time, datasets []string) (closed Session, ok bool) {
	s := z.open[user]
	if s != nil && at.Sub(s.End) > z.gap {
		closed, ok = s.Session, true
		closed.Open = false
		s = nil
	}
	if s == nil {
		s = &sitting{Session: Session{User: user, Start: at, End: at, Open: true}, seen: map[string]struct{}{}}
		z.open[user] = s
	}
	if at.After(s.End) {
		s.End = at
		s.DurationMs = millis(s.Duration())
	}
	s.Queries++
	for _, ds := range datasets {
		s.seen[ds] = struct{}{}
	}
	s.Datasets = len(s.seen)
	return closed, ok
}

// Open returns every session still in flight: one per user seen so far.
func (z *Sessionizer) Open() []Session {
	out := make([]Session, 0, len(z.open))
	for _, s := range z.open {
		out = append(out, s.Session)
	}
	return out
}

// SortSessions orders sessions by start time, then user.
func SortSessions(s []Session) {
	sort.Slice(s, func(i, j int) bool {
		if !s[i].Start.Equal(s[j].Start) {
			return s[i].Start.Before(s[j].Start)
		}
		return s[i].User < s[j].User
	})
}
