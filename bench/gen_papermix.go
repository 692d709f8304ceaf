package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sqlshare/internal/loadgen"
	"sqlshare/internal/synth"
)

// Tuned sizes of the paper_mix workload.
const (
	paperUsers          = 8
	paperTablesPerUser  = 2
	paperRows           = 800
	paperRatePerSecond  = 40.0
	paperWriteFraction  = 0.08
	paperUploadFraction = 0.04
	// paperPoolOps is how many ops loadgen compiles for the rounds to draw
	// from; it must hold enough of the rarest shape for every round.
	paperPoolOps      = 12000
	paperHeavyPoolOps = 6000
)

// paperLongShapes are the shapes whose cost grows faster than their input;
// short_query_p95_ms leaves them out so that it measures the queries that
// wait behind them, not them.
var paperLongShapes = map[string]bool{
	"subquery_exists": true, "subquery_scalar": true,
	"window_partition": true, "window_running": true, "long": true,
}

// paperShapeWeights is synth.DefaultMix with the two templates that hide a
// quadratic variant split at the generator's own odds, so that the number
// of quadratic queries in a round is decided here and not by a coin inside
// the generator.
func paperShapeWeights() map[string]float64 {
	m := synth.DefaultMix()
	return map[string]float64{
		"filter": m.Filter, "aggregate": m.Aggregate, "join": m.Join,
		"window_partition": m.Window * 0.7, "window_running": m.Window * 0.3,
		"top": m.Top, "union": m.Union,
		"subquery_exists": m.Subquery * 0.5, "subquery_scalar": m.Subquery * 0.5,
		"binning": m.Binning, "string": m.String, "geo": m.Geo, "date": m.Date,
		"nested": m.Nested, "complex": m.Complex, "long": m.Long,
	}
}

// paperShape names the stratum a compiled op belongs to.
func paperShape(o *loadgen.Op) string {
	switch {
	case o.Kind != loadgen.OpQuery:
		return string(o.Kind)
	case o.Template == string(synth.TplSubquery):
		if strings.Contains(o.SQL, "EXISTS") {
			return "subquery_exists"
		}
		return "subquery_scalar"
	case o.Template == string(synth.TplWindow):
		if strings.Contains(o.SQL, "running_total") {
			return "window_running"
		}
		return "window_partition"
	}
	return o.Template
}

// apportion splits n among the weighted keys by largest remainder, so the
// counts are whole, sum to n, and are the same for every seed.
func apportion(n int, weights map[string]float64) map[string]int {
	keys := make([]string, 0, len(weights))
	var total float64
	for k, w := range weights {
		keys = append(keys, k)
		total += w
	}
	sort.Strings(keys)
	out := make(map[string]int, len(keys))
	rem := make(map[string]float64, len(keys))
	left := n
	for _, k := range keys {
		exact := float64(n) * weights[k] / total
		out[k] = int(math.Floor(exact))
		rem[k] = exact - math.Floor(exact)
		left -= out[k]
	}
	sort.SliceStable(keys, func(i, j int) bool { return rem[keys[i]] > rem[keys[j]] })
	for _, k := range keys[:left] {
		out[k]++
	}
	return out
}

// paperQuadratic are the two shapes whose cost is the square of their
// table's row count. A round holds three of them and they are most of its
// CPU time, so what they run on is pinned: see genPaperMix.
var paperQuadratic = map[string]bool{"subquery_exists": true, "window_running": true}

// genPaperMix builds the realistic open-loop mix. loadgen compiles a long
// seeded stream in the paper's §5.3 proportions; each round then takes a
// fixed number of ops of every shape from it, in stream order, so that two
// seeds differ in users, tables, literals and arrival times but not in how
// many quadratic queries they contain. Appends are taken only when they
// land on a user's first dataset, and quadratic queries only when they read
// datasets that are never appended to and have a text not used before:
// their cost is then the square of the set-up row count in every round of
// every seed, instead of growing with the table or vanishing into the
// result cache. Arrival times are a Poisson process conditioned on the
// round's op count: sorted uniform draws over the round's length.
func genPaperMix(seed int64, rng *rand.Rand, sz sizes) (*workload, error) {
	plan, err := loadgen.Compile(loadgen.WorkloadSpec{
		Name: "paper_mix", Seed: seed, UserPrefix: "pm",
		Users: paperUsers, TablesPerUser: paperTablesPerUser, RowsPerTable: sz.scaleRows(paperRows),
		// Every user equally active. Drawn from the Figure-13 archetypes, eight
		// users are a lottery: a seed with one analytical user sends 40 % of
		// its ops, and most of its appends, to that user's tables.
		Archetypes: loadgen.ArchetypeMix{Exploratory: 1},
		Mix:        synth.DefaultMix(), DatasetZipf: 0.8, ValueZipf: 0.5,
		WriteFraction: paperWriteFraction, UploadFraction: paperUploadFraction,
		Ops: paperPoolOps, RatePerSec: paperRatePerSecond,
	})
	if err != nil {
		return nil, err
	}
	w := &workload{Name: "paper_mix", Open: true, LongShapes: paperLongShapes}
	w.Setup.Users = plan.Users
	for _, d := range plan.Setup {
		w.Setup.Datasets = append(w.Setup.Datasets, dataset{User: d.User, Name: d.Name, Public: d.Public, CSV: d.Data})
	}

	perRound := sz.opsPerRound(paperRatePerSecond)
	writes := apportion(perRound, map[string]float64{
		"append": paperWriteFraction, "upload": paperUploadFraction,
		"query": 1 - paperWriteFraction - paperUploadFraction,
	})
	quota := apportion(writes["query"], paperShapeWeights())
	// Every shape of the mix is in every round: one that rounded to none
	// takes a place from the filters, the most numerous shape. At 80 ops a
	// round this keeps the running total, 0.75 % of the mix, in the workload.
	for shape, n := range quota {
		if n == 0 && quota["filter"] > 1 {
			quota[shape]++
			quota["filter"]--
		}
	}
	quota["append"], quota["upload"] = writes["append"], writes["upload"]

	// growing holds each user's first dataset, the one appends may land on.
	growing := map[string]bool{}
	owned := map[string]bool{}
	for _, d := range plan.Setup {
		if !owned[d.User] {
			owned[d.User] = true
			growing[d.Name] = true
		}
	}
	readsGrowing := func(sql string) bool {
		for name := range growing {
			if strings.Contains(sql, name+"]") {
				return true
			}
		}
		return false
	}

	// Pool ops by shape, keeping stream order within a shape. The quadratic
	// shapes come from a second compilation of the same spec that emits
	// nothing but subquery and window templates: the population and the
	// set-up are drawn before the first op, so they are the same, and a few
	// thousand candidates are enough to find the distinct texts needed.
	pool := map[string][]*loadgen.Op{}
	for i := range plan.Ops {
		o := &plan.Ops[i]
		shape := paperShape(o)
		if paperQuadratic[shape] || (o.Kind == loadgen.OpAppend && !growing[o.Dataset]) {
			continue
		}
		pool[shape] = append(pool[shape], o)
	}
	heavySpec := plan.Spec
	heavySpec.Mix = synth.TemplateMix{Subquery: 1, Window: 1}
	heavySpec.WriteFraction, heavySpec.UploadFraction, heavySpec.Ops = 0, 0, paperHeavyPoolOps
	heavy, err := loadgen.Compile(heavySpec)
	if err != nil {
		return nil, err
	}
	for i, d := range heavy.Setup {
		if d.Name != plan.Setup[i].Name {
			return nil, fmt.Errorf("paper_mix: the two compilations disagree on the set-up (%s, %s)", d.Name, plan.Setup[i].Name)
		}
	}
	seenText := map[string]bool{}
	var repeats []*loadgen.Op
	for i := range heavy.Ops {
		o := &heavy.Ops[i]
		shape := paperShape(o)
		if !paperQuadratic[shape] || readsGrowing(o.SQL) {
			continue
		}
		if seenText[o.User+o.SQL] {
			repeats = append(repeats, o)
			continue
		}
		seenText[o.User+o.SQL] = true
		pool[shape] = append(pool[shape], o)
	}
	// A seed whose users can see too few static datasets has too few
	// distinct texts; it gets repeated ones last, which the result cache
	// will answer, rather than no workload.
	for _, o := range repeats {
		pool[paperShape(o)] = append(pool[paperShape(o)], o)
	}
	shapes := make([]string, 0, len(quota))
	for k := range quota {
		shapes = append(shapes, k)
	}
	sort.Strings(shapes)

	length := time.Duration(float64(perRound) / paperRatePerSecond * float64(time.Second))
	take := func(n int) ([]op, error) {
		var ops []op
		for _, shape := range shapes {
			need := quota[shape] * n / perRound // n < perRound only for the warm-up
			if len(pool[shape]) < need {
				return nil, fmt.Errorf("paper_mix: pool of %d ops holds too few %q ops", paperPoolOps, shape)
			}
			for _, o := range pool[shape][:need] {
				ops = append(ops, op{
					Kind: opKind(o.Kind), User: o.User, Shape: shape, SQL: o.SQL,
					Target: o.Dataset, Name: o.Name, Data: o.Data,
				})
			}
			pool[shape] = pool[shape][need:]
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		at := make([]float64, len(ops))
		for i := range at {
			at[i] = rng.Float64()
		}
		sort.Float64s(at)
		for i := range ops {
			ops[i].At = time.Duration(at[i] * float64(length))
		}
		return ops, nil
	}

	if w.Warmup, err = take(perRound / 2); err != nil {
		return nil, err
	}
	for r := 0; r < sz.rounds(); r++ {
		ops, err := take(perRound)
		if err != nil {
			return nil, err
		}
		w.Rounds = append(w.Rounds, [][]op{ops})
	}
	return w, nil
}
