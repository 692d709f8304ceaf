package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sqlshare/internal/synth"
)

// OpKind classifies a compiled operation.
type OpKind string

// The operation kinds: reads (query) and the two write paths (append
// batches into an existing dataset, brand-new uploads).
const (
	OpQuery  OpKind = "query"
	OpAppend OpKind = "append"
	OpUpload OpKind = "upload"
)

// Op is one timestamped operation in the compiled stream. At is the offset
// from stream start at the offered rate. The struct is JSON-stable so the
// determinism contract ("same spec + seed → byte-identical stream") can be
// checked by marshaling.
type Op struct {
	Seq  int           `json:"seq"`
	At   time.Duration `json:"at"`
	User string        `json:"user"`
	Kind OpKind        `json:"kind"`
	// Template labels query ops with the drawn shape — the latency bucket
	// the report aggregates under. Append/upload ops use the kind name.
	Template string `json:"template"`
	// SQL is the statement for query ops.
	SQL string `json:"sql,omitempty"`
	// Dataset is the append target (owner-local name).
	Dataset string `json:"dataset,omitempty"`
	// Name is the dataset name created by upload ops and append batches.
	Name string `json:"name,omitempty"`
	// Data is the CSV payload for append/upload ops.
	Data []byte `json:"data,omitempty"`
}

// SetupDataset is one initial dataset a replay creates before the timed
// run.
type SetupDataset struct {
	User   string `json:"user"`
	Name   string `json:"name"`
	Public bool   `json:"public"`
	Data   []byte `json:"data"`
}

// Plan is a compiled workload: the setup phase (users and initial
// datasets) plus the timestamped op stream.
type Plan struct {
	Spec  WorkloadSpec   `json:"spec"`
	Users []string       `json:"users"`
	Setup []SetupDataset `json:"setup"`
	Ops   []Op           `json:"ops"`
}

// planDataset is the compiler's schema-tracking record of a dataset.
type planDataset struct {
	info       synth.TableInfo
	kind       synth.DatasetKind
	headerless bool
	public     bool
}

// planUser couples a user with their datasets and activity weight.
type planUser struct {
	name     string
	weight   float64
	think    time.Duration
	datasets []*planDataset
	nextFree time.Duration
	seq      int // per-user upload counter for unique names
}

// Compile turns a spec into a Plan. Deterministic: every choice flows from
// a single rand.Rand seeded with spec.Seed, and timestamps come from the
// arrival process, never the wall clock.
func Compile(spec WorkloadSpec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))

	users := makePopulation(rng, spec)
	plan := &Plan{Spec: spec}
	for _, u := range users {
		plan.Users = append(plan.Users, u.name)
	}

	// Setup phase: each user's initial datasets. Append targets need a
	// stable arity, so initial datasets stick to fixed-arity kinds.
	var public []*planDataset
	for _, u := range users {
		for i := 0; i < spec.TablesPerUser; i++ {
			ds := newDataset(rng, spec, u, false)
			u.datasets = append(u.datasets, ds)
			ds.public = rng.Float64() < spec.PublicFraction
			if ds.public {
				public = append(public, ds)
			}
			plan.Setup = append(plan.Setup, SetupDataset{
				User: u.name, Name: ds.info.Name, Public: ds.public, Data: dsData(rng, spec, ds),
			})
		}
	}

	// Op stream: Poisson arrivals at the base rate, shaped per user by
	// think time, then re-sorted so the stream is globally time-ordered.
	qg := synth.NewQueryGen(rng, spec.Mix, spec.JoinDepth, spec.ValueZipf)
	var clock time.Duration
	ops := make([]Op, 0, spec.Ops)
	for seq := 0; seq < spec.Ops; seq++ {
		clock += time.Duration(rng.ExpFloat64() / spec.RatePerSec * float64(time.Second))
		u := pickUser(rng, users)
		at := clock
		if u.think > 0 && u.nextFree > at {
			at = u.nextFree
		}
		u.nextFree = at + u.think

		op := Op{Seq: seq, At: at, User: u.name}
		r := rng.Float64()
		switch {
		case r < spec.WriteFraction && len(appendable(u.datasets)) > 0:
			// Append batches splice into the target by arity, so only
			// fixed-arity kinds are valid targets (an expression matrix has
			// a random sample count per file).
			target := zipfPick(rng, appendable(u.datasets), spec.DatasetZipf)
			u.seq++
			batch := synth.MakeCSV(rng, target.kind, spec.AppendRows, target.headerless, false, false)
			op.Kind = OpAppend
			op.Template = string(OpAppend)
			op.Dataset = target.info.Name
			op.Name = fmt.Sprintf("%s_batch%d", target.info.Name, u.seq)
			op.Data = batch.Data
		case r < spec.WriteFraction+spec.UploadFraction:
			// Mid-stream uploads exercise the ingest path but never join the
			// query/append target pools: the queryable catalog is fixed at
			// setup so the stream has no cross-op data dependencies: an
			// open-loop replay of a dependent stream would race queries
			// against the uploads that create their targets.
			ds := newDataset(rng, spec, u, true)
			op.Kind = OpUpload
			op.Template = string(OpUpload)
			op.Name = ds.info.Name
			op.Data = dsData(rng, spec, ds)
		default:
			target, pool := pickQueryTarget(rng, spec, u, public)
			if target == nil {
				// A user with no datasets and no public pool cannot query;
				// fall back to an upload so the stream stays full-length.
				ds := newDataset(rng, spec, u, true)
				op.Kind = OpUpload
				op.Template = string(OpUpload)
				op.Name = ds.info.Name
				op.Data = dsData(rng, spec, ds)
				break
			}
			sql, tpl := qg.Build(u.name, &target.info, pool)
			op.Kind = OpQuery
			op.Template = string(tpl)
			op.SQL = sql
		}
		ops = append(ops, op)
	}

	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	for i := range ops {
		ops[i].Seq = i
	}
	plan.Ops = ops
	return plan, nil
}

// makePopulation builds the weighted user population from the archetype
// mix. Archetypes both allocate users and scale their activity.
func makePopulation(rng *rand.Rand, spec WorkloadSpec) []*planUser {
	a := spec.Archetypes
	total := a.total()
	think := time.Duration(spec.ThinkMs) * time.Millisecond
	users := make([]*planUser, spec.Users)
	for i := range users {
		r := rng.Float64() * total
		var weight float64
		switch {
		case r < a.OneShot:
			weight = 0.3 // one visit's worth of traffic
		case r < a.OneShot+a.Exploratory:
			weight = 1
		case r < a.OneShot+a.Exploratory+a.Analytical:
			weight = 5 // the heavy hitters of Figure 13
		default:
			weight = 2.5 // recurring pipeline batches
		}
		users[i] = &planUser{
			name:   fmt.Sprintf("%s%03d", spec.UserPrefix, i),
			weight: weight,
			think:  think,
		}
	}
	return users
}

func pickUser(rng *rand.Rand, users []*planUser) *planUser {
	var total float64
	for _, u := range users {
		total += u.weight
	}
	r := rng.Float64() * total
	for _, u := range users {
		if r < u.weight {
			return u
		}
		r -= u.weight
	}
	return users[len(users)-1]
}

// appendable filters to datasets whose kind has a stable column count —
// the precondition for UNION-append batches.
func appendable(dss []*planDataset) []*planDataset {
	out := make([]*planDataset, 0, len(dss))
	for _, d := range dss {
		if d.kind.FixedArity() {
			out = append(out, d)
		}
	}
	return out
}

// zipfPick draws from xs with probability proportional to 1/(rank+1)^s —
// rank order is creation order, so older datasets are the hot ones.
func zipfPick(rng *rand.Rand, xs []*planDataset, s float64) *planDataset {
	if len(xs) == 0 {
		return nil
	}
	if s <= 0 {
		return xs[rng.Intn(len(xs))]
	}
	weights := make([]float64, len(xs))
	var total float64
	for i := range xs {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if r < w {
			return xs[i]
		}
		r -= w
	}
	return xs[len(xs)-1]
}

// pickQueryTarget chooses the dataset a query hits: the user's own
// datasets plus the public pool, Zipf-skewed, with the pool for
// joins/unions being everything the user can see.
func pickQueryTarget(rng *rand.Rand, spec WorkloadSpec, u *planUser, public []*planDataset) (*planDataset, []*synth.TableInfo) {
	candidates := make([]*planDataset, 0, len(u.datasets)+len(public))
	candidates = append(candidates, u.datasets...)
	for _, p := range public {
		if p.info.Owner != u.name {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	target := zipfPick(rng, candidates, spec.DatasetZipf)
	pool := make([]*synth.TableInfo, len(candidates))
	for i, c := range candidates {
		pool[i] = &c.info
	}
	return target, pool
}

// newDataset allocates a dataset record. Initial (setup) datasets stick to
// fixed-arity kinds so they are valid append targets; mid-stream uploads
// may be any kind.
func newDataset(rng *rand.Rand, spec WorkloadSpec, u *planUser, anyKind bool) *planDataset {
	kind := synth.DatasetKind(rng.Intn(int(synth.NumDatasetKinds)))
	if !anyKind {
		for !kind.FixedArity() {
			kind = synth.DatasetKind(rng.Intn(int(synth.NumDatasetKinds)))
		}
	}
	u.seq++
	headerless := rng.Float64() < 0.4
	ds := &planDataset{kind: kind, headerless: headerless}
	ds.info = synth.TableInfo{
		Owner: u.name,
		Name:  fmt.Sprintf("%s_%s_%d", synth.KindName(kind), u.name, u.seq),
	}
	return ds
}

// dsData generates the dataset's CSV and records the predicted post-ingest
// schema on the record (MakeCSV predicts default names and type reverts).
func dsData(rng *rand.Rand, spec WorkloadSpec, ds *planDataset) []byte {
	file := synth.MakeCSV(rng, ds.kind, spec.RowsPerTable, ds.headerless, false, false)
	ds.info.Cols = file.Cols
	return file.Data
}
