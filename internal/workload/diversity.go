package workload

import (
	"math"
	"sort"
	"strconv"

	"sqlshare/internal/history"
)

// Entropy is Table 3: the workload-entropy comparison. Each tier is
// measured within the previous one, exactly as the paper reports it
// (column-distinct and template-distinct are fractions of the
// string-distinct queries).
type Entropy struct {
	TotalQueries      int
	StringDistinct    int
	ColumnDistinct    int
	TemplateDistinct  int
	StringDistinctPct float64 // of total
	ColumnPct         float64 // of string-distinct
	TemplatePct       float64 // of string-distinct
}

// ComputeEntropy computes Table 3 for one corpus.
func ComputeEntropy(c *Corpus) Entropy {
	e := Entropy{TotalQueries: len(c.Entries)}
	stringSeen := map[uint64]bool{}
	var distinct []*corpusEntry
	for _, entry := range c.Entries {
		// String-distinct is whitespace-insensitive, so trivially
		// reformatted copies of canned queries unify (the SDSS log
		// contained both patterns) — the same rule as the live
		// distinct-queries-per-user census.
		key := history.TextHash(entry.SQL)
		if stringSeen[key] {
			continue
		}
		stringSeen[key] = true
		ce := &corpusEntry{}
		if entry.Err == "" && entry.Plan != nil {
			ce.columnKey = entry.Plan.ColumnSetKey()
			ce.template = entry.Meta.Template
		} else {
			// Unplanned queries still count as string-distinct; use the
			// text as a degenerate key.
			ce.columnKey = "!text:" + strconv.FormatUint(key, 16)
			ce.template = ce.columnKey
		}
		distinct = append(distinct, ce)
	}
	e.StringDistinct = len(distinct)
	colSeen := map[string]bool{}
	tplSeen := map[string]bool{}
	for _, ce := range distinct {
		colSeen[ce.columnKey] = true
		tplSeen[ce.template] = true
	}
	e.ColumnDistinct = len(colSeen)
	e.TemplateDistinct = len(tplSeen)
	if e.TotalQueries > 0 {
		e.StringDistinctPct = 100 * float64(e.StringDistinct) / float64(e.TotalQueries)
	}
	if e.StringDistinct > 0 {
		e.ColumnPct = 100 * float64(e.ColumnDistinct) / float64(e.StringDistinct)
		e.TemplatePct = 100 * float64(e.TemplateDistinct) / float64(e.StringDistinct)
	}
	return e
}

type corpusEntry struct {
	columnKey string
	template  string
}

// UserDiversity is the §6.4 per-user workload-diversity measurement using
// the methodology of Mozafari et al.: split the user's queries into
// chronological chunks, represent each chunk as a normalized frequency
// vector over referenced attribute sets, and measure euclidean distance
// between consecutive chunks. The paper's reference maximum from the
// original work is 0.003; SQLShare users exhibited orders of magnitude
// more.
type UserDiversity struct {
	User        string
	Queries     int
	MaxDistance float64
}

// MozafariReferenceMax is the highest workload distance reported in the
// original CliffGuard study, quoted by the paper as the comparison point.
const MozafariReferenceMax = 0.003

// ComputeUserDiversity measures chunk-distance diversity for each user with
// at least minQueries logged queries, using the given chunk count.
func ComputeUserDiversity(c *Corpus, minQueries, chunks int) []UserDiversity {
	if chunks < 2 {
		chunks = 2
	}
	byUser := map[string][]*vecEntry{}
	for _, e := range c.Succeeded() {
		byUser[e.User] = append(byUser[e.User], &vecEntry{key: e.Plan.ColumnSetKey()})
	}
	var out []UserDiversity
	for user, entries := range byUser {
		if len(entries) < minQueries {
			continue
		}
		d := UserDiversity{User: user, Queries: len(entries)}
		// Universe of attribute-set keys.
		keyIdx := map[string]int{}
		for _, e := range entries {
			if _, ok := keyIdx[e.key]; !ok {
				keyIdx[e.key] = len(keyIdx)
			}
		}
		dim := len(keyIdx)
		per := len(entries) / chunks
		if per == 0 {
			per = 1
		}
		var prev []float64
		for start := 0; start < len(entries); start += per {
			end := start + per
			if end > len(entries) {
				end = len(entries)
			}
			vec := make([]float64, dim)
			for _, e := range entries[start:end] {
				vec[keyIdx[e.key]]++
			}
			n := float64(end - start)
			for i := range vec {
				vec[i] /= n
			}
			if prev != nil {
				if dist := euclidean(prev, vec); dist > d.MaxDistance {
					d.MaxDistance = dist
				}
			}
			prev = vec
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Queries > out[j].Queries })
	return out
}

type vecEntry struct{ key string }

func euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
