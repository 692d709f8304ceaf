// Command workload-report regenerates every table and figure of the
// paper's evaluation (Tables 2–4, Figures 4 and 6–13, and the §5–§6
// statistics) from deterministic synthetic corpora, printing measured
// values next to the paper's published numbers.
//
// Usage:
//
//	workload-report [-seed N] [-queries N] [-users N] [-sdss N] [-only section] [-export corpus.jsonl.gz]
//	workload-report -insights history.jsonl [-session-gap 30m] [-slow-query 500ms]
//	workload-report -data-dir DIR
//
// With -export, the SQLShare corpus is also written in the release format
// (internal/corpusio): a header, the dataset records, then each query's
// history JSONL line — the same line a server's -history-log holds.
//
// With -data-dir, the tool recovers a sqlshare-server data directory
// (snapshot + WAL replay) read-only — nothing is truncated or written, so
// it is safe against a live server — and prints what recovery found plus a
// census of the recovered catalog.
//
// The default scale (2,000 SQLShare queries, 20,000 SDSS queries) runs in
// seconds; -queries 24275 -users 591 approaches paper scale.
//
// With -insights, the tool instead replays a sqlshare-server query-history
// JSONL log (written with -history-log, rotated generations included)
// through the live insights analyzer and prints the same aggregates the
// server's /api/insights endpoints served: operator mix, table touches,
// per-user census, latency/length distributions, sessions, slow statements,
// and per-user/per-template resource usage folded through the same meter
// that backs /api/insights/usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sqlshare/internal/corpusio"
	"sqlshare/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic generator seed")
	queries := flag.Int("queries", 2000, "SQLShare corpus size (paper: 24275)")
	users := flag.Int("users", 60, "SQLShare user count (paper: 591)")
	sdss := flag.Int("sdss", 20000, "SDSS corpus size (paper: 7M)")
	only := flag.String("only", "", "render a single section: table2a,table2b,table3,table4,fig4,fig6,...,fig13,sec5.1,sec5.2,sec5.3,reuse,diversity")
	export := flag.String("export", "", "also write the SQLShare corpus in the release format (gzip JSON lines) to this file")
	insights := flag.String("insights", "", "replay a server query-history JSONL log and print workload insights instead of the synthetic report")
	sessionGap := flag.Duration("session-gap", 0, "with -insights: idle gap separating user sessions (default 30m)")
	slowQuery := flag.Duration("slow-query", 0, "with -insights: report statements at or above this runtime as slow")
	dataDir := flag.String("data-dir", "", "recover a server data directory read-only and print a catalog census")
	flag.Parse()

	if *dataDir != "" {
		if err := runDataDir(os.Stdout, *dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	if *insights != "" {
		if err := runInsights(os.Stdout, *insights, *sessionGap, *slowQuery); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "generating corpora (seed=%d, sqlshare=%d queries/%d users, sdss=%d queries)...\n",
		*seed, *queries, *users, *sdss)
	corpora, err := report.Build(report.Config{
		Seed:            *seed,
		SQLShareQueries: *queries,
		SQLShareUsers:   *users,
		SDSSQueries:     *sdss,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := corpusio.Export(f, corpora.SQLShare); err != nil {
			fmt.Fprintln(os.Stderr, "export error:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "export error:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "corpus released to %s (%d queries)\n", *export, len(corpora.SQLShare.Entries))
	}
	w := os.Stdout
	if *only == "" {
		corpora.WriteAll(w)
		return
	}
	switch strings.ToLower(*only) {
	case "table2a":
		corpora.Table2a(w)
	case "table2b":
		corpora.Table2b(w)
	case "table3":
		corpora.Table3(w)
	case "table4":
		corpora.Table4(w)
	case "fig4":
		corpora.Figure4(w)
	case "fig6":
		corpora.Figure6(w)
	case "fig7":
		corpora.Figure7(w)
	case "fig8":
		corpora.Figure8(w)
	case "fig9":
		corpora.Figure9(w)
	case "fig10":
		corpora.Figure10(w)
	case "fig11":
		corpora.Figure11(w)
	case "fig12":
		corpora.Figure12(w)
	case "fig13":
		corpora.Figure13(w)
	case "sec5.1":
		corpora.Section51(w)
	case "sec5.2":
		corpora.Section52(w)
	case "sec5.3":
		corpora.Section53(w)
	case "reuse":
		corpora.Reuse(w)
	case "diversity":
		corpora.Diversity(w)
	default:
		fmt.Fprintf(os.Stderr, "unknown section %q\n", *only)
		os.Exit(2)
	}
}
