package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// countingNode counts how many times the executor pulls it — a stand-in
// for an arbitrary subquery plan under the subplan cache.
type countingNode struct {
	base
	rel   *relation
	fail  atomic.Int64 // executions that error before the first success
	execs atomic.Int64
}

func (n *countingNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	n.execs.Add(1)
	if n.fail.Add(-1) >= 0 {
		return nil, errors.New("transient subquery failure")
	}
	return n.rel, nil
}

func oneCellRelation(v float64) *relation {
	return &relation{
		cols: []ColMeta{{Name: "v", Type: sqltypes.Float}},
		rows: []storage.Row{{sqltypes.NewFloat(v)}},
	}
}

// TestUncorrelatedSubplanExecutesOnce pins the core contract of the
// expression-subquery cache in build.go: an uncorrelated subquery runs
// exactly once per plan execution, even when parallel workers race on the
// first probe (the PR 4 concurrent-probe path).
func TestUncorrelatedSubplanExecutesOnce(t *testing.T) {
	n := &countingNode{rel: oneCellRelation(42)}
	s := &subplan{node: n}
	ctx := &ExecContext{Now: time.Now(), Progress: &Progress{}, tracer: newTracer()}

	const workers = 32
	rels := make([]*relation, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := s.run(ctx, nil)
			if err != nil {
				t.Error(err)
				return
			}
			rels[i] = rel
		}(i)
	}
	wg.Wait()
	if got := n.execs.Load(); got != 1 {
		t.Fatalf("uncorrelated subquery executed %d times under %d concurrent probes, want 1", got, workers)
	}
	for i, rel := range rels {
		if rel != rels[0] {
			t.Fatalf("probe %d received a different relation pointer", i)
		}
	}
}

func TestCorrelatedSubplanNeverCached(t *testing.T) {
	n := &countingNode{rel: oneCellRelation(1)}
	s := &subplan{node: n, correlated: true}
	ctx := &ExecContext{Now: time.Now(), Progress: &Progress{}, tracer: newTracer()}
	const runs = 5
	for i := 0; i < runs; i++ {
		if _, err := s.run(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.execs.Load(); got != runs {
		t.Fatalf("correlated subquery executed %d times, want %d (one per outer evaluation)", got, runs)
	}
}

func TestSubplanErrorIsNotCached(t *testing.T) {
	n := &countingNode{rel: oneCellRelation(7)}
	n.fail.Store(1) // first execution errors
	s := &subplan{node: n}
	ctx := &ExecContext{Now: time.Now(), Progress: &Progress{}, tracer: newTracer()}
	if _, err := s.run(ctx, nil); err == nil {
		t.Fatal("first run should surface the subquery error")
	}
	rel, err := s.run(ctx, nil)
	if err != nil {
		t.Fatalf("retry after transient error: %v", err)
	}
	if rel != n.rel {
		t.Fatal("retry returned wrong relation")
	}
	if got := n.execs.Load(); got != 2 {
		t.Fatalf("execs = %d, want 2 (error must not be cached as a result)", got)
	}
}

// TestUncorrelatedSubqueryParallelMatchesSerial executes a real query whose
// predicate holds an uncorrelated scalar subquery, serially and at DOP 8:
// results must be identical and the concurrent first probe must not
// deadlock or duplicate work.
func TestUncorrelatedSubqueryParallelMatchesSerial(t *testing.T) {
	res := testResolver(t)
	const sql = "SELECT id, name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY id"
	q := sqlparser.MustParse(sql)

	render := func(r *Result) string {
		out := ""
		for _, row := range r.Rows {
			for _, v := range row {
				out += v.Key() + "|"
			}
			out += "\n"
		}
		return out
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := p.Execute(&ExecContext{Now: time.Now(), DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != 2 { // avg = 300; dan (400) and eve (500)
		t.Fatalf("serial rows = %d, want 2", len(serial.Rows))
	}
	for i := 0; i < 4; i++ {
		// Each execution compiles fresh so the subplan cache starts cold
		// and the parallel workers race on the very first probe.
		pp, err := Compile(q, res)
		if err != nil {
			t.Fatal(err)
		}
		par, err := pp.Execute(&ExecContext{Now: time.Now(), DOP: 8})
		if err != nil {
			t.Fatal(err)
		}
		if render(par) != render(serial) {
			t.Fatalf("DOP 8 result diverges from serial on round %d:\n%s\nvs\n%s", i, render(par), render(serial))
		}
	}
}

// TestSubplanCacheScopedToPlan guards against a cache outliving its plan:
// two compilations of the same SQL must not share subplan state.
func TestSubplanCacheScopedToPlan(t *testing.T) {
	res := testResolver(t)
	q := sqlparser.MustParse("SELECT id FROM emp WHERE salary > (SELECT MIN(salary) FROM emp)")
	for i := 0; i < 2; i++ {
		p, err := Compile(q, res)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 4 {
			t.Fatalf("round %d: rows = %d, want 4", i, len(r.Rows))
		}
	}
}
