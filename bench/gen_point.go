package main

import (
	"fmt"
	"math/rand"
)

// Tuned sizes of the point workload.
const (
	pointUsers          = 8
	pointTablesPerUser  = 2
	pointRows           = 20000
	pointRowsPerKey     = 20
	pointSiteRows       = 128
	pointPublicDatasets = 6 // 37 % of 16, the paper's public share
	pointOpsPerSecond   = 2400
	pointCrossUserShare = 0.3
)

var pointShapes = []string{"seek", "range", "top", "count"}

// genPoint builds the request-path workload: every query touches a handful
// of rows, so what it costs is everything around the engine. Half the
// queries seek into a 20,000-row table by equality on its clustered key,
// which holds 20 rows per key: the engine answers an equality seek in
// microseconds but filters a key range row by row to the end of the table.
// The other half go through a two-deep chain of saved views; the engine
// does not push a predicate through a view, so the chain sits on a small
// companion table, or its scan would make this an engine workload. Every
// literal is distinct, so the result cache never answers.
func genPoint(rng *rand.Rand, sz sizes) *workload {
	rows := sz.scaleRows(pointRows)
	keys := rows / pointRowsPerKey
	w := &workload{Name: "point"}

	type target struct {
		owner, obs, sites string
		public            bool
	}
	var targets []target
	for u := 0; u < pointUsers; u++ {
		user := fmt.Sprintf("p%d", u)
		w.Setup.Users = append(w.Setup.Users, user)
		for t := 0; t < pointTablesPerUser; t++ {
			targets = append(targets, target{owner: user, obs: fmt.Sprintf("obs%d", t), sites: fmt.Sprintf("sites%d", t)})
		}
	}
	for _, i := range rng.Perm(len(targets))[:pointPublicDatasets] {
		targets[i].public = true
	}
	var public []int
	for i, t := range targets {
		if t.public {
			public = append(public, i)
		}
		w.Setup.Datasets = append(w.Setup.Datasets,
			dataset{User: t.owner, Name: t.obs, Public: t.public, CSV: pointObsCSV(rng, rows)},
			dataset{User: t.owner, Name: t.sites, Public: t.public, CSV: pointSitesCSV(rng)})
		w.Setup.Views = append(w.Setup.Views,
			savedView{User: t.owner, Name: t.sites + "_valid", Public: t.public,
				SQL: fmt.Sprintf("SELECT k, name, lat, lon FROM [%s] WHERE lat >= -90", t.sites)},
			savedView{User: t.owner, Name: t.sites + "_pub", Public: t.public,
				SQL: fmt.Sprintf("SELECT k, name, lat FROM [%s_valid]", t.sites)})
	}

	used := map[string]bool{}
	// makeOp renders op number n of a client: shapes rotate, and every other
	// rotation goes through the view chain.
	makeOp := func(n int) op {
		shape := pointShapes[n%len(pointShapes)]
		viaView := (n/len(pointShapes))%2 == 1
		for {
			u := rng.Intn(pointUsers)
			user := w.Setup.Users[u]
			ti := -1
			if rng.Float64() < pointCrossUserShare {
				ti = public[rng.Intn(len(public))]
			}
			if ti < 0 || targets[ti].owner == user {
				// Own tables: targets were appended user by user.
				ti = u*pointTablesPerUser + rng.Intn(pointTablesPerUser)
			}
			t := targets[ti]
			name := t.obs
			if viaView {
				name = t.sites + "_pub"
			}
			ref := "[" + name + "]"
			if t.owner != user {
				ref = "[" + t.owner + "." + name + "]"
			}
			var sql string
			if viaView {
				sql = pointViewSQL(rng, shape, ref)
			} else {
				sql = pointSeekSQL(rng, shape, ref, keys)
			}
			if used[user+sql] {
				continue
			}
			used[user+sql] = true
			return op{Kind: opQuery, User: user, Shape: shape, SQL: sql}
		}
	}

	for i := 0; i < 64; i++ {
		w.Warmup = append(w.Warmup, makeOp(i))
	}
	// Whole double rotations only, so every round has the same shape mix.
	perClient := sz.opsPerRound(pointOpsPerSecond) / numConnections
	cycle := 2 * len(pointShapes)
	perClient -= perClient % cycle
	if perClient < cycle {
		perClient = cycle
	}
	for r := 0; r < sz.rounds(); r++ {
		clients := make([][]op, numConnections)
		for c := range clients {
			for i := 0; i < perClient; i++ {
				// Client 1 starts on the view chain while client 0 starts on
				// the big tables.
				clients[c] = append(clients[c], makeOp(i+c*len(pointShapes)))
			}
		}
		w.Rounds = append(w.Rounds, clients)
	}
	return w
}

// pointSeekSQL renders a query of the given shape on an observation table.
// Every shape finds its rows by equality on the clustered key, so all four
// cost a binary search and at most 20 rows.
func pointSeekSQL(rng *rand.Rand, shape, ref string, keys int) string {
	k := rng.Intn(keys)
	switch shape {
	case "seek":
		return fmt.Sprintf("SELECT k, seq, val FROM %s WHERE k = %d AND seq = %d", ref, k, rng.Intn(pointRowsPerKey))
	case "range":
		return fmt.Sprintf("SELECT k, seq, val FROM %s WHERE k = %d", ref, k)
	case "top":
		return fmt.Sprintf("SELECT TOP 10 k, seq, val FROM %s WHERE k = %d ORDER BY val DESC, seq", ref, k)
	default:
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE k = %d", ref, k)
	}
}

// pointViewSQL renders a query of the given shape on the end of a site
// table's view chain. The table has few keys, so a second literal that
// every row passes keeps the texts distinct.
func pointViewSQL(rng *rand.Rand, shape, ref string) string {
	k := rng.Intn(pointSiteRows)
	pass := fmt.Sprintf("lat > %v", -90+sixtyFourths(rng, 1))
	switch shape {
	case "seek":
		return fmt.Sprintf("SELECT k, name, lat FROM %s WHERE k = %d AND %s", ref, k, pass)
	case "range": // the last 1 to 20 keys
		return fmt.Sprintf("SELECT k, name, lat FROM %s WHERE k >= %d AND %s", ref, pointSiteRows-1-rng.Intn(pointRowsPerKey), pass)
	case "top":
		return fmt.Sprintf("SELECT TOP 10 k, name, lat FROM %s WHERE k <= %d AND %s ORDER BY lat DESC, k", ref, k, pass)
	default:
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE k = %d AND %s", ref, k, pass)
	}
}

// pointObsCSV is an observation table whose clustered key k repeats
// pointRowsPerKey times.
func pointObsCSV(rng *rand.Rand, rows int) []byte {
	w := newCSV("k,seq,grp,val,ts,note")
	for i := 0; i < rows; i++ {
		w.int(i / pointRowsPerKey)
		w.int(i % pointRowsPerKey)
		w.str(regions[rng.Intn(len(regions))])
		w.float(sixtyFourths(rng, 1000))
		w.str(timestamp(i))
		w.str(fmt.Sprintf("n%d", rng.Intn(1_000_000)))
		w.endRow()
	}
	return w.bytes()
}

func pointSitesCSV(rng *rand.Rand) []byte {
	w := newCSV("k,name,lat,lon")
	for k := 0; k < pointSiteRows; k++ {
		w.int(k)
		w.str(fmt.Sprintf("site-%d", rng.Intn(100000)))
		w.float(sixtyFourths(rng, 180) - 89)
		w.float(sixtyFourths(rng, 360) - 180)
		w.endRow()
	}
	return w.bytes()
}
