package history

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
)

// foldCorpus builds a small two-user workload with an idle gap that splits
// alice's activity into two sessions.
func foldCorpus() []*Entry {
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	mk := func(id int, user, sql, digest string, at time.Time, ms float64, ops map[string]int, tables []string, cols map[string][]string, errText string) *Entry {
		e := &Entry{
			ID: id, Time: at, User: user, SQL: sql, Digest: digest,
			Runtime: fromMillis(ms), RowsReturned: 2,
			Datasets: tables, Err: errText,
		}
		if ops != nil || cols != nil {
			e.Meta = &plan.Metadata{OperatorCounts: ops, Columns: cols}
		}
		return e
	}
	scan := map[string]int{"Clustered Index Scan": 1}
	scanAgg := map[string]int{"Clustered Index Scan": 1, "Hash Match": 1}
	return []*Entry{
		mk(1, "alice", "SELECT * FROM water", "d1", base, 10, scan,
			[]string{"alice.water"}, map[string][]string{"alice.water": {"station", "depth"}}, ""),
		mk(2, "alice", "SELECT  *  FROM water", "d1", base.Add(5*time.Minute), 20, scan,
			[]string{"alice.water"}, map[string][]string{"alice.water": {"station"}}, ""),
		// 45-minute gap: alice's first session closes.
		mk(3, "alice", "SELECT station, COUNT(*) FROM water GROUP BY station", "d2", base.Add(50*time.Minute), 300, scanAgg,
			[]string{"alice.water"}, nil, ""),
		mk(4, "bob", "SELECT * FROM air", "d3", base.Add(time.Minute), 40, scan,
			[]string{"bob.air"}, nil, ""),
		mk(5, "bob", "SELECT broken", "", base.Add(2*time.Minute), 1, nil, nil, nil, "unknown column"),
	}
}

func TestAnalyzerAggregates(t *testing.T) {
	a := NewAnalyzer(30*time.Minute, 100*time.Millisecond, nil)
	for _, r := range foldCorpus() {
		a.Fold(r)
	}
	s := a.Summarize()
	if s.Queries != 5 || s.Failed != 1 || s.Users != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.RowsReturned != 10 {
		t.Errorf("rows = %d, want 10", s.RowsReturned)
	}
	if s.DistinctTemplates != 3 {
		t.Errorf("distinct templates = %d, want 3 (d1 d2 d3)", s.DistinctTemplates)
	}
	if s.DistinctOperators != 2 {
		t.Errorf("distinct operators = %d, want 2", s.DistinctOperators)
	}
	// alice: one closed + one open session; bob: one open. Total 3.
	if s.Sessions != 3 {
		t.Errorf("sessions = %d, want 3", s.Sessions)
	}
	if s.SlowStatements != 1 {
		t.Errorf("slow statements = %d, want 1 (the 300ms one)", s.SlowStatements)
	}
	if s.MeanRuntimeMs <= 0 || s.P50Ms <= 0 || s.P99Ms < s.P50Ms {
		t.Errorf("latency stats look wrong: %+v", s)
	}

	ops := a.OperatorMix()
	if len(ops) != 2 || ops[0].Operator != "Clustered Index Scan" || ops[0].Count != 4 {
		t.Fatalf("operator mix = %+v", ops)
	}
	if ops[1].Operator != "Hash Match" || ops[1].Count != 1 {
		t.Fatalf("operator mix = %+v", ops)
	}
	if got := ops[0].Fraction + ops[1].Fraction; got < 0.999 || got > 1.001 {
		t.Errorf("fractions sum to %v, want 1", got)
	}

	tables := a.TableTouches()
	if len(tables) != 2 || tables[0].Table != "alice.water" || tables[0].Touches != 3 {
		t.Fatalf("table touches = %+v", tables)
	}
	if tables[0].Columns["station"] != 2 || tables[0].Columns["depth"] != 1 {
		t.Errorf("column counts = %+v", tables[0].Columns)
	}

	users := a.UserInsights()
	if len(users) != 2 || users[0].User != "alice" {
		t.Fatalf("user insights = %+v", users)
	}
	// alice ran the same normalized text twice: 2 distinct of 3 queries.
	if users[0].Queries != 3 || users[0].DistinctQueries != 2 || users[0].Sessions != 2 {
		t.Errorf("alice = %+v", users[0])
	}
	if users[1].Queries != 2 || users[1].Failed != 1 {
		t.Errorf("bob = %+v", users[1])
	}

	sessions := a.Sessions()
	if len(sessions) != 3 {
		t.Fatalf("sessions = %+v", sessions)
	}
	var closed int
	for _, sess := range sessions {
		if !sess.Open {
			closed++
			if sess.User != "alice" || sess.Queries != 2 {
				t.Errorf("closed session = %+v", sess)
			}
		}
	}
	if closed != 1 {
		t.Errorf("closed sessions = %d, want 1", closed)
	}
}

// TestReplayReproducesLiveAggregates is the acceptance check for the
// offline path: folding the same records through Replay yields the same
// views the live analyzer served.
func TestReplayReproducesLiveAggregates(t *testing.T) {
	corpus := foldCorpus()
	live := NewAnalyzer(30*time.Minute, 100*time.Millisecond, obs.NewUsageMeter(obs.NewRegistry()))
	for _, r := range corpus {
		live.Fold(r)
	}

	// Round-trip through JSONL serialization, as workload-report would see.
	var back []*Entry
	for _, r := range corpus {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		dup := &Entry{}
		if err := json.Unmarshal(data, dup); err != nil {
			t.Fatal(err)
		}
		back = append(back, dup)
	}
	replayed := Replay(back, 30*time.Minute, 100*time.Millisecond)

	if !reflect.DeepEqual(live.Summarize(), replayed.Summarize()) {
		t.Errorf("summaries differ:\nlive:     %+v\nreplayed: %+v", live.Summarize(), replayed.Summarize())
	}
	if !reflect.DeepEqual(live.OperatorMix(), replayed.OperatorMix()) {
		t.Errorf("operator mixes differ:\nlive:     %+v\nreplayed: %+v", live.OperatorMix(), replayed.OperatorMix())
	}
	if !reflect.DeepEqual(live.TableTouches(), replayed.TableTouches()) {
		t.Errorf("table touches differ")
	}
	if !reflect.DeepEqual(live.UserInsights(), replayed.UserInsights()) {
		t.Errorf("user insights differ")
	}
	if !reflect.DeepEqual(live.Sessions(), replayed.Sessions()) {
		t.Errorf("sessions differ")
	}
	lu, ru := live.Usage(), replayed.Usage()
	if !reflect.DeepEqual(lu.Users, ru.Users) || !reflect.DeepEqual(lu.Templates, ru.Templates) || len(lu.Users) != 2 {
		t.Errorf("usage meters differ:\nlive:     %+v\nreplayed: %+v", lu, ru)
	}
	lb, lc := live.LatencyHistogram()
	rb, rc := replayed.LatencyHistogram()
	if !reflect.DeepEqual(lb, rb) || !reflect.DeepEqual(lc, rc) {
		t.Errorf("latency histograms differ")
	}
}

// TestDistinctPerUserIsCapped: the per-user distinct-statement set stops
// growing at maxDistinctPerUser — the census then reports the cap, flagged as
// a lower bound — and statements past it cost no heap.
func TestDistinctPerUserIsCapped(t *testing.T) {
	a := NewAnalyzer(30*time.Minute, time.Second, nil)
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	fold := func(from, to int) {
		for i := from; i < to; i++ {
			a.Fold(&Entry{
				ID: i, User: "alice", Digest: "d1", Time: base.Add(time.Duration(i) * time.Second),
				SQL: fmt.Sprintf("SELECT station FROM water WHERE val = %d", i),
			})
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	fold(0, maxDistinctPerUser)
	if u := a.UserInsights()[0]; u.DistinctQueries != maxDistinctPerUser || u.DistinctQueriesAtLeast {
		t.Fatalf("at the cap: distinct = %d, atLeast = %v; want %d, exact", u.DistinctQueries, u.DistinctQueriesAtLeast, maxDistinctPerUser)
	}
	// A repeat at the cap is not a dropped hash: the count stays exact.
	fold(0, 1)
	if u := a.UserInsights()[0]; u.DistinctQueriesAtLeast {
		t.Fatal("a repeated statement at the cap flagged the count as a lower bound")
	}
	fold(maxDistinctPerUser, maxDistinctPerUser+100)
	u := a.UserInsights()[0]
	if u.Queries != maxDistinctPerUser+101 || u.DistinctQueries != maxDistinctPerUser || !u.DistinctQueriesAtLeast {
		t.Fatalf("past the cap: %+v, want distinct = %d flagged at-least", u, maxDistinctPerUser)
	}
	before := heap()
	fold(maxDistinctPerUser+100, maxDistinctPerUser+20100)
	grew := heap() - before
	runtime.KeepAlive(a)
	if grew > 64<<10 {
		t.Errorf("heap grew %d bytes over 20,000 distinct statements past the cap, want it flat", grew)
	}
}
