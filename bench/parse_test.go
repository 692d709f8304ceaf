package main

import (
	"testing"
)

const promFixture = `# HELP sqlshare_queries_total Queries submitted.
# TYPE sqlshare_queries_total counter
sqlshare_queries_total 120
sqlshare_http_requests_total{route="GET /api/queries/{id}",status="200"} 100
sqlshare_http_requests_total{route="POST /api/queries",status="202"} 100
sqlshare_http_requests_total{route="POST /api/queries",status="500"} 3
sqlshare_http_requests_total{route="POST /api/staging",status="503"} 1
sqlshare_wal_fsync_seconds_bucket{le="0.001"} 7
sqlshare_wal_fsync_seconds_bucket{le="+Inf"} 10
sqlshare_wal_fsync_seconds_sum 0.05
sqlshare_wal_fsync_seconds_count 10
sqlshare_build_info{version="dev",go="go1.24.0"} 1
this line is not a sample
`

func TestParsePromText(t *testing.T) {
	s := parsePromText(promFixture)
	if got := s["sqlshare_queries_total"]; got != 120 {
		t.Errorf("counter = %v, want 120", got)
	}
	// A label value may contain spaces and braces.
	if got := s[`sqlshare_http_requests_total{route="GET /api/queries/{id}",status="200"}`]; got != 100 {
		t.Errorf("labelled counter = %v, want 100", got)
	}
	if got := s.sumWhere("sqlshare_http_requests_total", `status="5`); got != 4 {
		t.Errorf("5xx responses = %v, want 4", got)
	}
	if got := s.sumWhere("sqlshare_http_requests_total"); got != 204 {
		t.Errorf("all responses = %v, want 204", got)
	}
	if got := s.sumWhere("sqlshare_queries_total"); got != 120 {
		t.Errorf("family without labels = %v, want 120", got)
	}
	if got := s.histMean("sqlshare_wal_fsync_seconds"); !near(got, 0.005) {
		t.Errorf("histogram mean = %v, want 0.005", got)
	}
	if _, ok := s["this line is not"]; ok || len(s) != 10 {
		t.Errorf("parsed %d series, want 10: %v", len(s), s)
	}
}

func TestPromDelta(t *testing.T) {
	before := parsePromText("a_total 10\nh_sum 1.5\nh_count 3\n")
	after := parsePromText("a_total 25\nh_sum 4.5\nh_count 9\nborn_total{x=\"1\"} 2\n")
	d := after.delta(before)
	if d["a_total"] != 15 {
		t.Errorf("counter delta = %v, want 15", d["a_total"])
	}
	if got := d.histMean("h"); !near(got, 0.5) {
		t.Errorf("mean over the interval = %v, want (4.5-1.5)/(9-3) = 0.5", got)
	}
	if d[`born_total{x="1"}`] != 2 {
		t.Errorf("a series first seen in the interval started at 0; delta = %v", d[`born_total{x="1"}`])
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds a space and a ')' to trip naive splitting.
	const line = "4242 (sql share) srv) S 1 4242 4242 0 -1 4194304 900 0 0 0 150 50 0 0 20 0 9 0 1000 123456 789 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got, 2.0) {
		t.Errorf("cpu seconds = %v, want (150+50)/100 = 2", got)
	}
	if _, err := parseProcStat("no parens here"); err == nil {
		t.Error("no command field: want an error")
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("too few fields: want an error")
	}
}

func TestParseProcStatus(t *testing.T) {
	const text = "Name:\tsqlshare-server\nVmPeak:\t 2000000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t9\n"
	rss, peak, err := parseProcStatus(text)
	if err != nil {
		t.Fatal(err)
	}
	if rss != 100 || peak != 200 {
		t.Errorf("rss, peak = %v, %v MiB, want 100, 200", rss, peak)
	}
	if _, _, err := parseProcStatus("Name:\tx\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("missing VmHWM: want an error")
	}
}

func TestHostStealShare(t *testing.T) {
	before, err := parseHostStat("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseHostStat("cpu  150 0 70 850 10 0 5 115 7 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if before.total != 1000 || before.steal != 35 {
		t.Errorf("before = %+v, want total 1000 steal 35", before)
	}
	// 200 ticks passed, 80 of them stolen; guest time is not counted twice.
	if got := stealShare(before, after); !near(got, 0.4) {
		t.Errorf("steal share = %v, want 0.4", got)
	}
	if _, err := parseHostStat("intr 1 2 3\n"); err == nil {
		t.Error("no cpu line: want an error")
	}
}
