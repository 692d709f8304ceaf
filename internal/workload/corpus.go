// Package workload implements the paper's workload study (§4–§6): the
// aggregate metadata of Table 2, the complexity measures of §6.1 (query
// length, distinct operators, operator frequency), the diversity measures
// of §6.2 (string/column/template distinctness, workload entropy, the
// subtree-matching reuse estimator, Mozafari chunk-distance), the dataset
// lifetime and coverage analyses of §6.3, the user classification of §6.4,
// and the feature censuses of §5.1–§5.3.
package workload

import (
	"sort"

	"sqlshare/internal/catalog"
)

// Corpus is one analyzable workload: a catalog (datasets, users) plus a
// query log. Both the SQLShare-like and the SDSS-like synthetic corpora
// take this form — their generators collect every entry they are handed —
// as would a replayed real workload.
type Corpus struct {
	Name    string
	Catalog *catalog.Catalog
	Entries []*catalog.LogEntry
}

// NewCorpus snapshots a live catalog into a corpus: its datasets and the
// window of the query log its ring still holds (the most recent 1,024
// queries by default).
func NewCorpus(name string, cat *catalog.Catalog) *Corpus {
	return &Corpus{Name: name, Catalog: cat, Entries: cat.Log()}
}

// Succeeded returns the log entries that executed without error and carry
// an extracted plan.
func (c *Corpus) Succeeded() []*catalog.LogEntry {
	var out []*catalog.LogEntry
	for _, e := range c.Entries {
		if e.Err == "" && e.Plan != nil && e.Meta != nil {
			out = append(out, e)
		}
	}
	return out
}

// usersByActivity returns user names ordered by descending query count.
func (c *Corpus) usersByActivity() []string {
	counts := map[string]int{}
	for _, e := range c.Entries {
		counts[e.User]++
	}
	users := make([]string, 0, len(counts))
	for u := range counts {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if counts[users[i]] != counts[users[j]] {
			return counts[users[i]] > counts[users[j]]
		}
		return users[i] < users[j]
	})
	return users
}

// TopUsers returns the n most active users (by query count).
func (c *Corpus) TopUsers(n int) []string {
	users := c.usersByActivity()
	if len(users) > n {
		users = users[:n]
	}
	return users
}
