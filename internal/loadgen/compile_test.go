package loadgen

import (
	"encoding/json"
	"testing"
	"time"
)

func testSpec() WorkloadSpec {
	return WorkloadSpec{
		Name: "test", Seed: 42, Users: 6, TablesPerUser: 2, RowsPerTable: 50,
		WriteFraction: 0.1, UploadFraction: 0.05,
		Ops: 150, RatePerSec: 50, ThinkMs: 20, DatasetZipf: 1.0, ValueZipf: 0.5,
	}
}

// TestCompileDeterministic is the harness's reproducibility contract: the
// same spec + seed compiles to a byte-identical op stream and setup phase.
func TestCompileDeterministic(t *testing.T) {
	a, err := Compile(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("same spec + seed compiled different plans")
	}

	other := testSpec()
	other.Seed = 43
	c, err := Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(c)
	if string(aj) == string(cj) {
		t.Fatal("different seeds compiled identical plans")
	}
}

func TestCompileStreamShape(t *testing.T) {
	spec := testSpec()
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ops) != spec.Ops {
		t.Fatalf("ops = %d, want %d", len(plan.Ops), spec.Ops)
	}
	if len(plan.Users) != spec.Users {
		t.Fatalf("users = %d, want %d", len(plan.Users), spec.Users)
	}
	if len(plan.Setup) != spec.Users*spec.TablesPerUser {
		t.Fatalf("setup datasets = %d, want %d", len(plan.Setup), spec.Users*spec.TablesPerUser)
	}
	counts := map[OpKind]int{}
	var last time.Duration
	for i, op := range plan.Ops {
		if op.Seq != i {
			t.Fatalf("op %d has seq %d", i, op.Seq)
		}
		if op.At < last {
			t.Fatalf("op %d scheduled at %v before predecessor at %v", i, op.At, last)
		}
		last = op.At
		counts[op.Kind]++
		switch op.Kind {
		case OpQuery:
			if op.SQL == "" {
				t.Fatalf("op %d: query without SQL", i)
			}
		case OpAppend:
			if op.Dataset == "" || op.Name == "" || len(op.Data) == 0 {
				t.Fatalf("op %d: append missing target/name/data", i)
			}
		case OpUpload:
			if op.Name == "" || len(op.Data) == 0 {
				t.Fatalf("op %d: upload missing name/data", i)
			}
		}
	}
	if counts[OpQuery] == 0 || counts[OpAppend] == 0 {
		t.Fatalf("degenerate kind mix: %v", counts)
	}
}

// TestCompileThinkTime: per-user ops never violate the think-time gap.
func TestCompileThinkTime(t *testing.T) {
	spec := testSpec()
	spec.ThinkMs = 100
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	lastByUser := map[string]time.Duration{}
	think := time.Duration(spec.ThinkMs) * time.Millisecond
	for _, op := range plan.Ops {
		if prev, ok := lastByUser[op.User]; ok {
			if gap := op.At - prev; gap < think {
				t.Fatalf("user %s ops %v apart, think time is %v", op.User, gap, think)
			}
		}
		lastByUser[op.User] = op.At
	}
}

// TestCompileBoundarySpecs: the degenerate corners compile rather than
// panic, and defaulting fills every zero dial.
func TestCompileBoundarySpecs(t *testing.T) {
	cases := []WorkloadSpec{
		{},                 // all defaults
		{Users: 1, Ops: 3}, // single user
		{Users: 1, TablesPerUser: 1, Ops: 1, WriteFraction: 1}, // all writes
		{Users: 2, Ops: 10, UploadFraction: 1},                 // all uploads
		{Users: 3, Ops: 20, DatasetZipf: 3, ValueZipf: 5, JoinDepth: 6},
	}
	for i, spec := range cases {
		plan, err := Compile(spec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(plan.Ops) == 0 {
			t.Fatalf("case %d: empty stream", i)
		}
	}
}

func TestCompileRejectsBadSpec(t *testing.T) {
	if _, err := Compile(WorkloadSpec{WriteFraction: 0.7, UploadFraction: 0.7}); err == nil {
		t.Fatal("fractions summing past 1 accepted")
	}
}
