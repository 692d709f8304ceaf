// Package loadgen is the controllable workload compiler. It turns a
// declarative WorkloadSpec — template mix, join depth, Zipf skew,
// read/write ratio, user-population shape, arrival process — into a
// deterministic, seed-reproducible stream of timestamped operations
// (SynQL-style workload synthesis). It sends nothing: the benchmark's
// open-loop driver replays the streams it compiles.
package loadgen

import (
	"fmt"

	"sqlshare/internal/synth"
)

// ArchetypeMix weights the Figure-13 user archetypes in the synthetic
// population. Weights are relative; they are normalized before use.
type ArchetypeMix struct {
	OneShot     float64 `json:"oneShot"`
	Exploratory float64 `json:"exploratory"`
	Analytical  float64 `json:"analytical"`
	Pipeline    float64 `json:"pipeline"`
}

func (a ArchetypeMix) total() float64 {
	return a.OneShot + a.Exploratory + a.Analytical + a.Pipeline
}

// WorkloadSpec declares a compilable workload. The zero value of every dial
// falls back to a sensible default, so `{"ops": 200}` is a valid spec.
type WorkloadSpec struct {
	// Name labels the workload in reports.
	Name string `json:"name"`
	// Seed drives every random choice; same spec + same seed = identical
	// compiled op stream, byte for byte.
	Seed int64 `json:"seed"`

	// Users is the synthetic population size.
	Users int `json:"users"`
	// UserPrefix namespaces the population's user names (default "load"),
	// so streams compiled for one server never collide on user or dataset
	// names.
	UserPrefix string `json:"userPrefix"`
	// Archetypes shapes the population (defaults to the Figure 13 mix).
	// Archetype weights also scale per-user activity: analytical users
	// issue several times the traffic of one-shot users.
	Archetypes ArchetypeMix `json:"archetypes"`
	// TablesPerUser is each user's initial dataset count (setup phase).
	TablesPerUser int `json:"tablesPerUser"`
	// RowsPerTable sizes the initial datasets.
	RowsPerTable int `json:"rowsPerTable"`

	// Mix weights the query templates (zero = synth.DefaultMix).
	Mix synth.TemplateMix `json:"mix"`
	// JoinDepth chains join templates across this many tables beyond the
	// first (0/1 = two-table joins).
	JoinDepth int `json:"joinDepth"`
	// DatasetZipf skews which dataset a query targets: 0 = uniform over
	// the candidate pool, larger values concentrate load on hot datasets.
	DatasetZipf float64 `json:"datasetZipf"`
	// ValueZipf skews predicate literals toward the low end of the domain.
	ValueZipf float64 `json:"valueZipf"`

	// WriteFraction is the probability an op is an append batch against an
	// existing dataset (the daily-pipeline write path).
	WriteFraction float64 `json:"writeFraction"`
	// UploadFraction is the probability an op is a brand-new dataset
	// upload; the remainder (1 - write - upload) are queries.
	UploadFraction float64 `json:"uploadFraction"`
	// AppendRows sizes append batches.
	AppendRows int `json:"appendRows"`

	// Ops is the length of the compiled stream.
	Ops int `json:"ops"`
	// RatePerSec is the offered rate of the Poisson (open-loop) arrival
	// process.
	RatePerSec float64 `json:"ratePerSec"`
	// ThinkMs is the per-user minimum gap between that user's operations
	// (session think time); 0 disables it. Think time shapes per-user
	// burstiness but never slows the aggregate arrival process below the
	// offered rate for long: ops from other users fill the gaps.
	ThinkMs int `json:"thinkMs"`
	// PublicFraction is the probability an initial dataset is shared
	// publicly (queryable cross-user); defaults to the paper's 37%.
	PublicFraction float64 `json:"publicFraction"`
}

// withDefaults returns a copy with zero dials resolved.
func (s WorkloadSpec) withDefaults() WorkloadSpec {
	if s.Name == "" {
		s.Name = "default"
	}
	if s.Users <= 0 {
		s.Users = 8
	}
	if s.UserPrefix == "" {
		s.UserPrefix = "load"
	}
	if s.Archetypes.total() <= 0 {
		// The paper's Figure 13 population mix.
		s.Archetypes = ArchetypeMix{OneShot: 0.30, Exploratory: 0.50, Analytical: 0.13, Pipeline: 0.07}
	}
	if s.TablesPerUser <= 0 {
		s.TablesPerUser = 2
	}
	if s.RowsPerTable <= 0 {
		s.RowsPerTable = 200
	}
	if s.Mix.Total() <= 0 {
		s.Mix = synth.DefaultMix()
	}
	if s.JoinDepth < 1 {
		s.JoinDepth = 1
	}
	if s.DatasetZipf < 0 {
		s.DatasetZipf = 0
	}
	if s.ValueZipf < 0 {
		s.ValueZipf = 0
	}
	if s.WriteFraction < 0 {
		s.WriteFraction = 0
	}
	if s.UploadFraction < 0 {
		s.UploadFraction = 0
	}
	if s.AppendRows <= 0 {
		s.AppendRows = 40
	}
	if s.Ops <= 0 {
		s.Ops = 200
	}
	if s.RatePerSec <= 0 {
		s.RatePerSec = 20
	}
	if s.ThinkMs < 0 {
		s.ThinkMs = 0
	}
	if s.PublicFraction == 0 {
		s.PublicFraction = 0.37
	}
	if s.PublicFraction < 0 {
		s.PublicFraction = 0
	}
	return s
}

// Validate rejects specs no defaulting can save.
func (s WorkloadSpec) Validate() error {
	if s.WriteFraction+s.UploadFraction > 1 {
		return fmt.Errorf("writeFraction (%.2f) + uploadFraction (%.2f) exceed 1",
			s.WriteFraction, s.UploadFraction)
	}
	if s.PublicFraction > 1 {
		return fmt.Errorf("publicFraction %.2f exceeds 1", s.PublicFraction)
	}
	return nil
}
