package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 30}, {0.95, 50}, {0.2, 10}, {0.21, 20}, {0, 10}, {1, 50}}
	for _, c := range cases {
		if got := percentile(values, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if values[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedianAcrossRounds(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five rounds = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four rounds = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 12, 11, 15, 14, 13, 19, 18, 17, 16}, 11.75, 14.5, 17.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 4, 8}, 2, 4, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpreadIsQuartileDistanceOverMedian(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
	if got := spread([]float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of equal rounds = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread with a zero median = %v, want 0", got)
	}
}

func TestMetricSetRoundsReportsMedianAndSpread(t *testing.T) {
	m := &metricSet{workload: "w"}
	m.rounds("x", "ms", []float64{5, 1, 4, 2, 3}, 7)
	got := m.list[0]
	if got.Value != 3 || !near(got.Spread, 1) || got.Samples != 7 || got.Workload != "w" {
		t.Errorf("rounds metric = %+v", got)
	}
}

// A span's self time is its duration less its direct children's, per op.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.workload = "w"
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("catalog", 1, "catalog.query", "", at(0), at(10))
	tr.add("catalog", 1, "compile", "catalog.query", at(0), at(2))
	tr.add("catalog", 1, "execute", "catalog.query", at(2), at(9))
	tr.add("catalog", 2, "catalog.query", "", at(20), at(24))
	tr.add("catalog", 2, "compile", "catalog.query", at(20), at(21))
	tr.add("rest", 1, "catalog.query", "", at(0), at(99)) // another path: not counted
	got := tr.selfTimes("catalog", "catalog.query")
	if len(got) != 2 || !near(got[1], 1) || !near(got[2], 3) {
		t.Errorf("self times = %v, want op 1: 10-2-7 = 1 ms, op 2: 4-1 = 3 ms", got)
	}
	var none *tracer
	none.add("rest", 1, "op", "", at(0), at(1)) // a nil tracer records nothing and does not panic
}
