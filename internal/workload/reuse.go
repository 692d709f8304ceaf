package workload

import (
	"sort"
	"strings"

	"sqlshare/internal/history"
	"sqlshare/internal/plan"
)

// ReuseResult is the §6.2 reuse estimate: how much of the workload's
// estimated execution cost could have been saved by caching intermediate
// results, computed by matching plan subtrees against subtrees of earlier
// queries. The estimator mirrors the paper's: a stored subtree matches when
// it has the same shape over the same objects, equal-or-less-selective
// filters (its filter clauses are a subset of the current subtree's), and
// duplicate queries are removed first.
type ReuseResult struct {
	Queries int
	// TotalCost is the summed root cost of the distinct workload.
	TotalCost float64
	// SavedCost is the cost of subtrees that matched earlier subtrees.
	SavedCost float64
	// SavedPct is 100*SavedCost/TotalCost.
	SavedPct float64
	// HighSavers and LowSavers count queries whose individual saving was
	// >90% and <10% respectively — the paper observes the distribution is
	// bimodal, so most reuse is achievable with a small cache.
	HighSavers int
	LowSavers  int
}

// storedSubtree is one previously seen plan subtree available for reuse.
type storedSubtree struct {
	node *plan.Node
	cost float64
}

// EstimateReuse runs the subtree-matching reuse estimator over the corpus
// in log order, after removing string-duplicate queries (a repeated query
// would trivially reuse its own prior result).
func EstimateReuse(c *Corpus) ReuseResult {
	var res ReuseResult
	seenSQL := map[uint64]bool{}
	store := map[string][]*storedSubtree{}
	for _, e := range c.Succeeded() {
		key := history.TextHash(e.SQL)
		if seenSQL[key] {
			continue
		}
		seenSQL[key] = true
		res.Queries++
		rootCost := e.Plan.TotalCost()
		res.TotalCost += rootCost
		saved := matchAndStore(e.Plan.Root, store)
		if saved > rootCost {
			saved = rootCost
		}
		res.SavedCost += saved
		if rootCost > 0 {
			frac := saved / rootCost
			if frac > 0.9 {
				res.HighSavers++
			} else if frac < 0.1 {
				res.LowSavers++
			}
		}
	}
	if res.TotalCost > 0 {
		res.SavedPct = 100 * res.SavedCost / res.TotalCost
	}
	return res
}

// matchAndStore walks the plan top-down. When a subtree matches a stored
// one, its full cost is counted as saved and the walk does not descend
// (a reused intermediate result covers its whole subtree). All visited
// subtrees are added to the store for future queries.
func matchAndStore(n *plan.Node, store map[string][]*storedSubtree) float64 {
	if n == nil {
		return 0
	}
	key := subtreeShape(n)
	// Bare unfiltered leaf operators (a whole-table scan) are not
	// "intermediate results": caching one is just caching the table.
	// Restricting matches to composite or filtered subtrees keeps the
	// estimator about computation reuse, as §6.2 intends.
	matchable := len(n.Children) > 0 || len(n.Filters) > 0
	if matchable {
		for _, cand := range store[key] {
			if reusable(cand.node, n) {
				// The candidate is at most as selective at every node of
				// the subtree: its materialized result can be refiltered,
				// so the whole subtree cost is avoided (the estimator
				// assumes free cache hits, as the paper's does).
				recordSubtree(n, store)
				return n.Total
			}
		}
	}
	var saved float64
	for _, ch := range n.Children {
		saved += matchAndStore(ch, store)
	}
	if matchable {
		store[key] = append(store[key], &storedSubtree{node: n, cost: n.Total})
	}
	return saved
}

// reusable reports whether stored subtree a can serve subtree b: identical
// operator/object structure, with a's filter clauses a subset of b's at
// every corresponding node (a is at most as selective, so b is a
// refiltering of a's result — §6.2's matching rule).
func reusable(a, b *plan.Node) bool {
	if a.PhysicalOp != b.PhysicalOp || a.Object != b.Object || len(a.Children) != len(b.Children) {
		return false
	}
	if !subsetOfSet(filterSet(a), filterSet(b)) {
		return false
	}
	for i := range a.Children {
		if !reusable(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func recordSubtree(n *plan.Node, store map[string][]*storedSubtree) {
	if len(n.Children) > 0 || len(n.Filters) > 0 {
		store[subtreeShape(n)] = append(store[subtreeShape(n)], &storedSubtree{node: n, cost: n.Total})
	}
	for _, ch := range n.Children {
		recordSubtree(ch, store)
	}
}

// subtreeShape is the structural signature of a subtree: operator, object,
// and the shapes of its children. Filters are deliberately excluded — they
// participate via the subset test instead.
func subtreeShape(n *plan.Node) string {
	var sb strings.Builder
	shapeRec(n, &sb)
	return sb.String()
}

func shapeRec(n *plan.Node, sb *strings.Builder) {
	sb.WriteString(n.PhysicalOp)
	if n.Object != "" {
		sb.WriteByte('<')
		sb.WriteString(n.Object)
		sb.WriteByte('>')
	}
	if len(n.Children) > 0 {
		sb.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteByte(',')
			}
			shapeRec(c, sb)
		}
		sb.WriteByte(')')
	}
}

// filterSet collects the filter clauses of the subtree root.
func filterSet(n *plan.Node) map[string]bool {
	out := map[string]bool{}
	for _, f := range n.Filters {
		out[f] = true
	}
	return out
}

func subsetOfSet(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// SavingsDistribution returns each distinct query's individual saving
// fraction, sorted ascending, for inspecting the bimodal shape.
func SavingsDistribution(c *Corpus) []float64 {
	seenSQL := map[uint64]bool{}
	store := map[string][]*storedSubtree{}
	var out []float64
	for _, e := range c.Succeeded() {
		key := history.TextHash(e.SQL)
		if seenSQL[key] {
			continue
		}
		seenSQL[key] = true
		rootCost := e.Plan.TotalCost()
		saved := matchAndStore(e.Plan.Root, store)
		if rootCost <= 0 {
			continue
		}
		if saved > rootCost {
			saved = rootCost
		}
		out = append(out, saved/rootCost)
	}
	sort.Float64s(out)
	return out
}
