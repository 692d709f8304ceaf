package main

import (
	"fmt"
	"math/rand"
)

// Tuned sizes of the pipeline workload.
const (
	pipelineBaseRows         = 4000
	pipelineBatchRows        = 500
	pipelineMaterializeEvery = 8
	pipelineItersPerSecond   = 12.0 // both clients together
	pipelineRepeats          = 4    // each dashboard query: once cold, then warm
)

// genPipeline builds the §3.2 "daily batch" user: upload a batch, append it
// to a target dataset, then look at the target's dashboard — once cold
// (the append fenced the cached results off) and three times more warm, so
// three queries in four are cache hits. (With two in three the median query
// sat on the knee between the hit and the miss mode and moved 30 % from
// run to run.) Every
// eighth iteration the target is materialized and the client continues on
// the snapshot, so the UNION ALL chain under a target never grows past
// eight branches. Each round works on targets of its own, created at
// set-up with the same number of rows, so every round does the same work.
func genPipeline(rng *rand.Rand, sz sizes) *workload {
	w := &workload{Name: "pipeline", Durable: true}
	base := sz.scaleRows(pipelineBaseRows)
	iters := sz.opsPerRound(pipelineItersPerSecond) / numConnections
	if iters < 1 {
		iters = 1
	}
	users := make([]string, numConnections)
	for c := range users {
		users[c] = fmt.Sprintf("pl%d", c)
	}
	w.Setup.Users = users

	// iteration appends the ops of one pass over target to ops and returns
	// the target the next pass continues on.
	iteration := func(ops []op, user, target, tag string, i int) ([]op, string) {
		batch := fmt.Sprintf("b%s_%d", tag, i)
		ops = append(ops,
			op{Kind: opUpload, User: user, Shape: "upload", Name: batch,
				Data: pipelineCSV(rng, base+i*pipelineBatchRows, pipelineBatchRows), Rows: pipelineBatchRows},
			op{Kind: opAppend, User: user, Shape: "append", Target: target, Name: batch})
		for rep := 0; rep < pipelineRepeats; rep++ {
			ops = append(ops,
				op{Kind: opQuery, User: user, Shape: "dash_group",
					SQL: fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM [%s] GROUP BY region ORDER BY region", target)},
				op{Kind: opQuery, User: user, Shape: "dash_top",
					SQL: fmt.Sprintf("SELECT TOP 10 id, amount FROM [%s] ORDER BY amount DESC, id", target)},
				op{Kind: opQuery, User: user, Shape: "dash_count",
					SQL: fmt.Sprintf("SELECT COUNT(*) AS n FROM [%s] WHERE amount > 500", target)})
		}
		if i%pipelineMaterializeEvery == pipelineMaterializeEvery-1 {
			snap := fmt.Sprintf("t%s_m%d", tag, i/pipelineMaterializeEvery)
			ops = append(ops, op{Kind: opMaterialize, User: user, Shape: "materialize", Target: target, Name: snap})
			target = snap
		}
		return ops, target
	}
	addTarget := func(user, name string) {
		w.Setup.Datasets = append(w.Setup.Datasets, dataset{
			User: user, Name: name, CSV: pipelineCSV(rng, 0, base), Rows: base,
		})
	}

	for _, user := range users {
		addTarget(user, "twarm")
	}
	// The warm-up is one client's list, so it uses one user's target.
	w.Warmup, _ = iteration(nil, users[0], "twarm", "warm", 0)

	for r := 0; r < sz.rounds(); r++ {
		clients := make([][]op, numConnections)
		for c, user := range users {
			tag := fmt.Sprint(r)
			target := "t" + tag
			addTarget(user, target)
			for i := 0; i < iters; i++ {
				clients[c], target = iteration(clients[c], user, target, tag, i)
			}
		}
		w.Rounds = append(w.Rounds, clients)
	}
	return w
}

// pipelineCSV renders rows first..first+n-1 of a target's schema.
func pipelineCSV(rng *rand.Rand, first, n int) []byte {
	w := newCSV("id,region,amount,ts")
	for i := first; i < first+n; i++ {
		w.int(i)
		w.str(regions[rng.Intn(len(regions))])
		w.float(sixtyFourths(rng, 1000))
		w.str(timestamp(i))
		w.endRow()
	}
	return w.bytes()
}
