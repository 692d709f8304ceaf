package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentVecRegistration races metric *registration* — not just
// updates — from many goroutines: the same vec name registered repeatedly,
// and new label children minted concurrently with scrapes. Run under -race
// (make race) this proves registration is race-clean (ISSUE satellite).
func TestConcurrentVecRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Registration is idempotent: every goroutine gets the same
				// underlying vec back.
				v := r.NewCounterVec("jobs_total", "jobs", "status")
				v.With(fmt.Sprintf("status-%d", i%10)).Inc()
				if i%25 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(g)
	}
	wg.Wait()

	v := r.NewCounterVec("jobs_total", "jobs", "status")
	var total int64
	for i := 0; i < 10; i++ {
		total += v.With(fmt.Sprintf("status-%d", i)).Value()
	}
	if total != 800 {
		t.Fatalf("lost increments across concurrent registration: %d, want 800", total)
	}
}

func TestHistogramQuantileClampsRange(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("clamp", "", []float64{1, 2})
	h.Observe(1.5)
	if got := h.Quantile(-3); got != h.Quantile(0) {
		t.Errorf("q<0 not clamped to 0: %v vs %v", got, h.Quantile(0))
	}
	if got := h.Quantile(7); got != h.Quantile(1) {
		t.Errorf("q>1 not clamped to 1: %v vs %v", got, h.Quantile(1))
	}
	if p := h.Quantile(1); p <= 1 || p > 2 {
		t.Errorf("single observation p100 = %v, want in (1, 2]", p)
	}
}

// TestHistogramUnsortedBounds: constructors must sort and dedup bucket
// bounds so the /metrics le= series is ascending — Prometheus clients
// reject histograms with out-of-order buckets (ISSUE satellite).
func TestHistogramUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("unsorted_seconds", "", []float64{10, 0.1, 1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	var les []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `unsorted_seconds_bucket{le="`) {
			les = append(les, line)
		}
	}
	want := []string{
		`unsorted_seconds_bucket{le="0.1"} 1`,
		`unsorted_seconds_bucket{le="1"} 2`,
		`unsorted_seconds_bucket{le="10"} 3`,
		`unsorted_seconds_bucket{le="+Inf"} 4`,
	}
	if len(les) != len(want) {
		t.Fatalf("bucket lines = %v, want %v", les, want)
	}
	for i := range want {
		if les[i] != want[i] {
			t.Errorf("bucket[%d] = %q, want %q (order matters)", i, les[i], want[i])
		}
	}
}
