package main

import (
	"fmt"
	"math/rand"
)

// Tuned sizes of the analytic workload.
const (
	analyticFactRows     = 24000
	analyticRangeRows    = 400 // rows the zone-prunable range returns
	analyticDimRows      = 1000
	analyticCategories   = 20
	analyticOpsPerSecond = 32
	analyticUser         = "an"
)

// analyticShapes are the eight hand-shaped queries, in the order the
// workload rotates through them. Each costs time linear in the rows it
// reads: no quadratic shapes.
var analyticShapes = []string{
	"scan_agg", "range", "group_low", "group_high", "join_agg", "topn", "window", "viewchain",
}

// genAnalytic builds the engine-and-storage workload: one seeded fact table
// with a foreign key into a small dimension table, and eight query shapes
// whose cost is scanning, grouping, joining and sorting. The request path
// is the same as on point but is noise here.
func genAnalytic(rng *rand.Rand, sz sizes) *workload {
	rows := sz.scaleRows(analyticFactRows)
	w := &workload{Name: "analytic"}
	w.Setup.Users = []string{analyticUser}
	w.Setup.Datasets = []dataset{
		{User: analyticUser, Name: "facts", CSV: factsCSV(rng, rows)},
		{User: analyticUser, Name: "dims", CSV: dimsCSV(rng)},
	}
	w.Setup.Views = []savedView{
		{User: analyticUser, Name: "facts_valid", SQL: "SELECT id, dim_id, ts, amount, region FROM [facts] WHERE amount >= 0"},
		{User: analyticUser, Name: "facts_keyed", SQL: "SELECT id, dim_id, amount, region FROM [facts_valid] WHERE dim_id >= 0"},
		{User: analyticUser, Name: "facts_report", SQL: "SELECT id, amount, region FROM [facts_keyed]"},
	}

	used := map[string]bool{}
	next := 0
	makeOp := func() op {
		shape := analyticShapes[next%len(analyticShapes)]
		next++
		for {
			sql := analyticSQL(rng, shape, rows)
			if used[sql] {
				continue
			}
			used[sql] = true
			return op{Kind: opQuery, User: analyticUser, Shape: shape, SQL: sql}
		}
	}
	for i := 0; i < len(analyticShapes); i++ {
		w.Warmup = append(w.Warmup, makeOp())
	}
	// Whole rotations only, so every round has the same shape mix.
	perClient := sz.opsPerRound(analyticOpsPerSecond) / numConnections
	perClient -= perClient % len(analyticShapes)
	if perClient < len(analyticShapes) {
		perClient = len(analyticShapes)
	}
	for r := 0; r < sz.rounds(); r++ {
		clients := make([][]op, numConnections)
		for c := range clients {
			// Client 1 starts half a rotation ahead so the two clients are
			// not always running the same shape at once.
			next = c * len(analyticShapes) / 2
			for i := 0; i < perClient; i++ {
				clients[c] = append(clients[c], makeOp())
			}
		}
		w.Rounds = append(w.Rounds, clients)
	}
	return w
}

// analyticSQL renders one query of the given shape with a fresh literal.
// Literals move the predicate by a fraction of a percent of the table, so
// every query of a shape does the same work without repeating its text.
func analyticSQL(rng *rand.Rand, shape string, rows int) string {
	low := rng.Intn(rows / 100) // an id in the first percent of the table
	switch shape {
	case "scan_agg":
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a FROM [facts] WHERE amount > %v",
			sixtyFourths(rng, 50))
	case "range":
		start := rng.Intn(rows - analyticRangeRows)
		return fmt.Sprintf("SELECT id, amount, region FROM [facts] WHERE ts >= '%s' AND ts < '%s'",
			timestamp(start), timestamp(start+analyticRangeRows))
	case "group_low":
		return fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM [facts] WHERE id >= %d GROUP BY region ORDER BY region", low)
	case "group_high":
		return fmt.Sprintf("SELECT dim_id, COUNT(*) AS n, AVG(amount) AS a FROM [facts] WHERE id >= %d GROUP BY dim_id ORDER BY dim_id", low)
	case "join_agg":
		return fmt.Sprintf("SELECT d.category, COUNT(*) AS n, SUM(f.amount) AS s FROM [facts] AS f JOIN [dims] AS d ON f.dim_id = d.dim_id WHERE f.id >= %d GROUP BY d.category ORDER BY d.category", low)
	case "topn":
		return fmt.Sprintf("SELECT TOP 100 id, amount FROM [facts] WHERE amount < %v ORDER BY amount DESC, id",
			950+sixtyFourths(rng, 50))
	case "window":
		slice := rows / 4
		start := rng.Intn(rows - slice)
		return fmt.Sprintf("SELECT w.id, w.region, w.amount, w.rk FROM (SELECT id, region, amount, RANK() OVER (PARTITION BY region ORDER BY amount DESC) AS rk FROM [facts] WHERE id >= %d AND id < %d) AS w WHERE w.rk <= 20 ORDER BY w.region, w.rk, w.id",
			start, start+slice)
	default: // viewchain
		return fmt.Sprintf("SELECT region, COUNT(*) AS n, AVG(amount) AS a FROM [facts_report] WHERE amount > %v GROUP BY region ORDER BY region",
			sixtyFourths(rng, 50))
	}
}

func factsCSV(rng *rand.Rand, rows int) []byte {
	w := newCSV("id,dim_id,ts,amount,region,tag")
	for i := 0; i < rows; i++ {
		w.int(i)
		w.int(rng.Intn(analyticDimRows))
		w.str(timestamp(i))
		w.float(sixtyFourths(rng, 1000))
		w.str(regions[rng.Intn(len(regions))])
		w.str(fmt.Sprintf("tag-%d", rng.Intn(1_000_000)))
		w.endRow()
	}
	return w.bytes()
}

func dimsCSV(rng *rand.Rand) []byte {
	w := newCSV("dim_id,category,weight")
	for i := 0; i < analyticDimRows; i++ {
		w.int(i)
		w.str(fmt.Sprintf("cat%02d", rng.Intn(analyticCategories)))
		w.float(sixtyFourths(rng, 10))
		w.endRow()
	}
	return w.bytes()
}
