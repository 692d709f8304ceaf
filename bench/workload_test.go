package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

var testSizes = sizes{Seconds: 2, Quick: true}

// stream renders everything a workload would send, set-up included.
func stream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := generate(name, seed, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	number(w)
	data, err := json.Marshal(struct {
		Setup  setupPlan
		Warmup []op
		Rounds [][][]op
	}{w.Setup, w.Warmup, w.Rounds})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := stream(t, name, 7), stream(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if c := stream(t, name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := generate("nope", 1, testSizes); err == nil {
		t.Error("want an error for an unknown workload")
	}
}

// Every round of a workload must hold the same number of ops of each shape,
// whatever the seed: that is what makes rounds and seeds comparable.
func TestRoundsAreIdenticallyShaped(t *testing.T) {
	for _, name := range workloadNames {
		var want map[string]int
		for _, seed := range []int64{1, 2} {
			w, err := generate(name, seed, sizes{Seconds: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Rounds) != measuredRounds+spareRounds {
				t.Fatalf("%s: %d rounds, want %d", name, len(w.Rounds), measuredRounds+spareRounds)
			}
			for r, clients := range w.Rounds {
				got := map[string]int{}
				for _, ops := range clients {
					for i := range ops {
						got[ops[i].Shape]++
					}
				}
				if want == nil {
					want = got
				}
				if len(got) != len(want) {
					t.Errorf("%s seed %d round %d: shapes %v, want %v", name, seed, r, got, want)
				}
				for shape, n := range want {
					if got[shape] != n {
						t.Errorf("%s seed %d round %d: %d × %s, want %d", name, seed, r, got[shape], shape, n)
					}
				}
			}
		}
	}
}

func TestPaperMixHoldsEveryShapeAndOpenLoopTimes(t *testing.T) {
	w, err := generate("paper_mix", 3, sizes{Seconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Open {
		t.Fatal("paper_mix must be an open loop")
	}
	ops := w.Rounds[0][0]
	seen := map[string]bool{}
	for i := range ops {
		seen[ops[i].Shape] = true
		if i > 0 && ops[i].At < ops[i-1].At {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
	}
	for shape := range paperShapeWeights() {
		if !seen[shape] {
			t.Errorf("round holds no %s op", shape)
		}
	}
	if !seen["append"] || !seen["upload"] {
		t.Errorf("round holds no writes: %v", seen)
	}
}

func TestApportion(t *testing.T) {
	got := apportion(10, map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	if got["a"] != 5 || got["b"] != 3 || got["c"] != 2 {
		t.Errorf("exact shares: %v", got)
	}
	got = apportion(7, map[string]float64{"a": 1, "b": 1, "c": 1})
	if got["a"]+got["b"]+got["c"] != 7 {
		t.Errorf("counts must sum to 7: %v", got)
	}
	// 7/3 each: the spare one goes to the first key, deterministically.
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 2 {
		t.Errorf("ties break by key order: %v", got)
	}
}

func TestNumberMarksEveryTenthQuery(t *testing.T) {
	w, err := generate("pipeline", 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	number(w)
	queries, marked, lastID := 0, 0, 0
	for _, clients := range w.Rounds {
		for _, ops := range clients {
			for i := range ops {
				if ops[i].ID != lastID+1 {
					t.Fatalf("op IDs must count up: %d after %d", ops[i].ID, lastID)
				}
				lastID = ops[i].ID
				if ops[i].Kind == opQuery {
					queries++
					if ops[i].Check {
						marked++
					}
				} else if ops[i].Check {
					t.Error("a write is marked for the output check")
				}
			}
		}
	}
	if marked != queries/10 {
		t.Errorf("%d of %d queries marked, want %d", marked, queries, queries/10)
	}
}

// BENCHMARK.json is written by hand; this keeps it in step with what the
// program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why: %d chars), want %q with a reason of at most 200 chars", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	compare := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if bounded != (got[i].Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, got[i].Name, got[i].Bound != nil, bounded)
			}
			if got[i].Bound != nil && (*got[i].Bound <= 0 || *got[i].Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", got[i].Name, *got[i].Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	compare("per_layer", spec.PerLayer, perLayerMetrics, false)
}
