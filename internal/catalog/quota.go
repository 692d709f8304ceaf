package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// The paper's architecture (Fig 3) includes a Quotas component in the REST
// layer and tags "to ease search and organization in the UI" (§3.2). This
// file implements both: per-user storage accounting with an enforced
// limit, and dataset search over names, descriptions and tags.

// DefaultQuotaBytes is the per-user storage allowance when none is set.
// The production service held 143 GB across hundreds of users (§4); the
// default here is deliberately generous for an in-memory store.
const DefaultQuotaBytes = 1 << 30

// SetQuotaBytes sets the per-user storage allowance; 0 restores the
// default, a negative value disables enforcement.
func (c *Catalog) SetQuotaBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quotaBytes = n
}

// UserUsage reports the estimated bytes of physical storage owned by a
// user: the base tables behind their uploads, snapshots and in-place
// materializations. Views cost nothing — one reason the view-centric model
// suits high-churn use.
func (c *Catalog) UserUsage(user string) int64 { return c.state.Load().usage(user) }

func (s *state) usage(user string) int64 {
	prefix := basePrefix + user + "."
	var total int64
	for name, tbl := range s.baseTables {
		if strings.HasPrefix(name, prefix) {
			total += int64(tbl.NumRows()) * int64(tbl.RowSizeBytes())
		}
	}
	return total
}

// checkQuota verifies that adding addBytes for user to s stays within the
// allowance. Called with c.mu held, which guards quotaBytes.
func (c *Catalog) checkQuota(s *state, user string, addBytes int64) error {
	quota := c.quotaBytes
	if quota == 0 {
		quota = DefaultQuotaBytes
	}
	if quota < 0 {
		return nil
	}
	if used := s.usage(user); used+addBytes > quota {
		return &QuotaError{User: user, Used: used, Requested: addBytes, Quota: quota}
	}
	return nil
}

// QuotaError reports a storage-allowance violation.
type QuotaError struct {
	User      string
	Used      int64
	Requested int64
	Quota     int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("catalog: quota exceeded for %q: %d used + %d requested > %d allowed",
		e.User, e.Used, e.Requested, e.Quota)
}

// IsQuotaError reports whether err is a storage-allowance violation.
func IsQuotaError(err error) bool {
	_, ok := err.(*QuotaError)
	return ok
}

// ---------------------------------------------------------------- search

// SearchDatasets returns the datasets visible to user whose name,
// description or tags match the query terms (all terms must match,
// case-insensitively). An empty query lists everything visible.
func (c *Catalog) SearchDatasets(user, query string) []*Dataset {
	terms := strings.Fields(strings.ToLower(query))
	s := c.state.Load()
	var out []*Dataset
	for _, ds := range s.datasets {
		if ds.Deleted || !matchesTerms(ds, terms) || s.bindDataset(user, ds).authorize() != nil {
			continue
		}
		out = append(out, ds.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

func matchesTerms(ds *Dataset, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	var hay strings.Builder
	hay.WriteString(strings.ToLower(ds.FullName()))
	hay.WriteByte(' ')
	hay.WriteString(strings.ToLower(ds.Meta.Description))
	for _, tag := range ds.Meta.Tags {
		hay.WriteByte(' ')
		hay.WriteString(strings.ToLower(tag))
	}
	text := hay.String()
	for _, term := range terms {
		if !strings.Contains(text, term) {
			return false
		}
	}
	return true
}
