package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/ingest"
	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
	"sqlshare/internal/server"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/storage"
	"sqlshare/internal/wal"
)

// Sizes of the standalone probes. Each is small enough to take about a
// second and large enough for a median.
const (
	probeQueries       = 100 // queries of the workload timed per obs comparison
	probeBatchRows     = 500 // rows of the write batch of a workload that has none of its own
	probeWrites        = 24  // create/append rounds of the catalog write probe
	probeWALRecords    = 48  // records appended to the probe log
	probeRecoveryRows  = 200 // datasets journaled for the recovery probe
	probeIngestBytes   = 4e6 // set-up CSV bytes run through ingest.LoadBytes
	convoyRows         = 400 // table of the short-behind-long probe; the long query is quadratic in it
	convoyShortQueries = 40  // point queries timed with and without the long one running
	shapeRepeats       = 3   // runs of each reference analytic shape
	insertBatches      = 40  // batches of the storage insert probe
)

// has reports whether a metric was already recorded.
func (m *metricSet) has(name string) bool {
	for i := range m.list {
		if m.list[i].Name == name {
			return true
		}
	}
	return false
}

// timeIt returns how long f took, in ms.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return ms(time.Since(start)), err
}

// writeBatch is the CSV a workload's writes carry: its own first batch, or
// for a read-only workload the head of its first dataset.
func writeBatch(w *workload, budget []op) []byte {
	for i := range budget {
		if budget[i].Data != nil {
			return budget[i].Data
		}
	}
	csv := w.Setup.Datasets[0].CSV
	end := 0
	for line := 0; line <= probeBatchRows && end < len(csv); line++ {
		next := bytes.IndexByte(csv[end:], '\n')
		if next < 0 {
			end = len(csv)
			break
		}
		end += next + 1
	}
	return csv[:end]
}

// layerProbes times each layer's public functions on the workload's own
// inputs, outside any server: what a layer costs with nothing around it.
// direct is the in-process server the catalog replay ran on; its query log
// holds the plans the plan probe needs.
func layerProbes(m *metricSet, w *workload, seed int64, budget []op, direct *inProcessServer) error {
	batch := writeBatch(w, budget)

	parseProbe(m, budget)
	planProbe(m, direct.cat)
	if err := ingestProbe(m, w); err != nil {
		return fmt.Errorf("ingest probe: %w", err)
	}
	if err := storageProbe(m, w, batch); err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	if err := catalogWriteProbe(m, direct.cat, batch); err != nil {
		return fmt.Errorf("catalog write probe: %w", err)
	}
	if err := walProbe(m, w, batch); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := obsProbe(m, w, budget); err != nil {
		return fmt.Errorf("obs probe: %w", err)
	}
	if err := convoyProbe(m, seed); err != nil {
		return fmt.Errorf("short-behind-long probe: %w", err)
	}
	if err := shapeProbe(m, seed); err != nil {
		return fmt.Errorf("analytic shape probe: %w", err)
	}
	return nil
}

// parseProbe parses the workload's own SQL.
func parseProbe(m *metricSet, budget []op) {
	var us []float64
	var totalNs, totalBytes float64
	for i := range budget {
		if budget[i].Kind != opQuery {
			continue
		}
		sql := budget[i].SQL
		start := time.Now()
		_, err := sqlparser.ParseStatement(sql)
		d := time.Since(start)
		if err != nil {
			continue // the replay would have failed first
		}
		us = append(us, float64(d.Nanoseconds())/1000)
		totalNs += float64(d.Nanoseconds())
		totalBytes += float64(len(sql))
	}
	m.once("sqlparser.parse_p50_us", "us", median(us), len(us))
	m.once("sqlparser.parse_ns_per_byte", "ns/B", ratio(totalNs, totalBytes), int(totalBytes))
}

// planProbe re-extracts the metadata and the digest of the plans the
// catalog replay logged.
func planProbe(m *metricSet, cat *catalog.Catalog) {
	var extract, digest []float64
	for _, e := range cat.Log() {
		if e.Plan == nil || len(extract) >= budgetOps {
			continue
		}
		start := time.Now()
		plan.Extract(e.SQL, e.Plan)
		mid := time.Now()
		e.Plan.Digest()
		end := time.Now()
		extract = append(extract, float64(mid.Sub(start).Nanoseconds())/1000)
		digest = append(digest, float64(end.Sub(mid).Nanoseconds())/1000)
	}
	m.once("plan.extract_p50_us", "us", median(extract), len(extract))
	m.once("plan.digest_p50_us", "us", median(digest), len(digest))
}

// ingestProbe runs the set-up's CSV files through ingest.LoadBytes.
func ingestProbe(m *metricSet, w *workload) error {
	var bytesIn, rows, seconds float64
	for i := range w.Setup.Datasets {
		d := &w.Setup.Datasets[i]
		if bytesIn >= probeIngestBytes {
			break
		}
		start := time.Now()
		rep, err := ingest.LoadBytes(d.Name, d.CSV, ingest.Options{})
		if err != nil {
			return err
		}
		seconds += time.Since(start).Seconds()
		bytesIn += float64(len(d.CSV))
		rows += float64(rep.Rows)
	}
	m.once("ingest.load_mb_per_s", "MB/s", ratio(bytesIn/1e6, seconds), int(bytesIn))
	m.once("ingest.rows_per_s", "1/s", ratio(rows, seconds), int(rows))
	return nil
}

// storageProbe inserts the workload's batch into one table again and again
// — the merge a growing table pays — and reads the stored row width of the
// workload's first dataset.
func storageProbe(m *metricSet, w *workload, batch []byte) error {
	rep, err := ingest.LoadBytes("probe", batch, ingest.Options{})
	if err != nil {
		return err
	}
	rows := rep.Table.Scan()
	tbl := storage.NewTable("probe", rep.Table.Schema())
	start := time.Now()
	for i := 0; i < insertBatches; i++ {
		if err := tbl.Insert(append([]storage.Row(nil), rows...)); err != nil {
			return err
		}
		tbl.ScanSegments() // a reader arrives, so the deferred re-encode is paid too
	}
	seconds := time.Since(start).Seconds()
	m.once("storage.insert_rows_per_s", "1/s", ratio(float64(insertBatches*len(rows)), seconds), insertBatches*len(rows))

	first, err := ingest.LoadBytes("first", w.Setup.Datasets[0].CSV, ingest.Options{})
	if err != nil {
		return err
	}
	m.once("storage.row_size_bytes", "B", float64(first.Table.RowSizeBytes()), first.Rows)
	return nil
}

// catalogWriteProbe times the catalog's three writes on the workload's
// batch, for whichever of them the workload's own replay did not contain.
func catalogWriteProbe(m *metricSet, cat *catalog.Catalog, batch []byte) error {
	names := map[opKind]string{
		opUpload: "catalog.create_dataset_p50_ms", opAppend: "catalog.append_p50_ms", opMaterialize: "catalog.materialize_p50_ms",
	}
	if m.has(names[opUpload]) && m.has(names[opAppend]) && m.has(names[opMaterialize]) {
		return nil
	}
	const user = "probe"
	if _, err := cat.CreateUser(user, ""); err != nil {
		return err
	}
	if err := uploadInProcess(cat, user, "target0", batch); err != nil {
		return err
	}
	target := "target0"
	times := map[opKind][]float64{}
	for i := 0; i < probeWrites; i++ {
		rep, err := ingest.LoadBytes("b", batch, ingest.Options{})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("batch%d", i)
		d, err := timeIt(func() error {
			_, err := cat.CreateDatasetFromTable(user, name, rep.Table, catalog.Meta{})
			return err
		})
		if err != nil {
			return err
		}
		times[opUpload] = append(times[opUpload], d)
		if d, err = timeIt(func() error { return cat.Append(user, target, name) }); err != nil {
			return err
		}
		times[opAppend] = append(times[opAppend], d)
		if i%4 == 3 {
			next := fmt.Sprintf("target%d", i)
			d, err := timeIt(func() error {
				_, err := cat.Materialize(user, target, next)
				return err
			})
			if err != nil {
				return err
			}
			times[opMaterialize] = append(times[opMaterialize], d)
			target = next
		}
	}
	for kind, name := range names {
		if !m.has(name) {
			m.once(name, "ms", median(times[kind]), len(times[kind]))
		}
	}
	return nil
}

// walProbe appends workload-sized records to a log of its own in group
// commit mode, one at a time, so each append waits for its own fsync; then
// it journals a few hundred datasets and times a cold recovery.
func walProbe(m *metricSet, w *workload, batch []byte) error {
	rep, err := ingest.LoadBytes("probe", batch, ingest.Options{})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scan, err := wal.ScanDir(dir, 0)
	if err != nil {
		return err
	}
	wr, err := wal.OpenWriter(dir, scan, wal.SyncGroup)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	fsync := reg.NewHistogram("probe_fsync_seconds", "", nil)
	wr.SetMetrics(fsync, reg.NewCounter("probe_records", ""), reg.NewCounter("probe_bytes", ""))
	data := rep.Table.Data()
	var us []float64
	for i := 0; i < probeWALRecords; i++ {
		rec := &wal.Record{Op: wal.OpCreateDataset, Time: time.Unix(0, 0).UTC(),
			CreateDataset: &wal.CreateDataset{Owner: "probe", Name: fmt.Sprintf("d%d", i), Table: data}}
		d, err := timeIt(func() error { return wr.Append(rec) })
		if err != nil {
			wr.Close()
			return err
		}
		us = append(us, d*1000) // ms to µs
	}
	if err := wr.Close(); err != nil {
		return err
	}
	m.once("wal.append_p50_us", "us", median(us), len(us))
	if !w.Durable {
		// An in-memory server has no log; the probe's fsyncs stand in so the
		// number exists wherever a WAL change could be measured.
		m.once("wal.fsync_mean_ms", "ms", ratio(fsync.Sum(), float64(fsync.Count()))*1000, int(fsync.Count()))
	}

	rdir, err := os.MkdirTemp(outDir, "walrecover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rdir)
	cat, d, err := catalog.OpenDurable(rdir, &catalog.DurableOptions{SyncMode: wal.SyncNone})
	if err != nil {
		return err
	}
	if _, err := cat.CreateUser("probe", ""); err != nil {
		d.Close()
		return err
	}
	for i := 0; i < probeRecoveryRows; i++ {
		t, err := data.Table()
		if err == nil {
			_, err = cat.CreateDatasetFromTable("probe", fmt.Sprintf("d%d", i), t, catalog.Meta{})
		}
		if err != nil {
			d.Close()
			return err
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	start := time.Now()
	_, stats, err := catalog.OpenReadOnly(rdir)
	if err != nil {
		return err
	}
	m.once("wal.recovery_records_per_s", "1/s", ratio(float64(stats.RecordsReplayed), time.Since(start).Seconds()), stats.RecordsReplayed)
	return nil
}

// obsProbe prices the recording sinks. Each of the workload's short queries
// runs on a bare catalog and on a server's catalog, which has the metrics,
// history, live registry and usage meters attached, with the cache bypassed
// on both so both execute; then on the bare catalog with and without the
// operator tracer. Runs alternate, so host drift cancels. Both catalogs
// hold the set-up and nothing else, so queries on datasets the workload
// creates as it goes are left out.
func obsProbe(m *metricSet, w *workload, budget []op) error {
	created := map[string]bool{}
	for i := range budget {
		if budget[i].isWrite() {
			created[budget[i].Name] = true
		}
	}
	var queries []*op
candidates:
	for i := range budget {
		o := &budget[i]
		if o.Kind != opQuery || w.LongShapes[o.Shape] || len(queries) == probeQueries {
			continue
		}
		for name := range created {
			if strings.Contains(o.SQL, name+"]") {
				continue candidates
			}
		}
		queries = append(queries, o)
	}
	bare := catalog.New()
	if err := loadCatalog(bare, &w.Setup); err != nil {
		return err
	}
	sinks, err := newInProcessServer(&w.Setup)
	if err != nil {
		return err
	}
	withSinks := sinks.cat
	run := func(cat *catalog.Catalog, o *op, trace bool) (float64, error) {
		return timeIt(func() error {
			_, _, err := cat.QueryWithOptions(o.User, o.SQL, catalog.QueryOptions{Trace: trace, NoCache: true})
			return err
		})
	}
	var plainMs, sinksMs, tracedMs, untracedMs []float64
	for _, o := range queries {
		for _, step := range []struct {
			cat   *catalog.Catalog
			trace bool
			into  *[]float64
		}{
			{bare, true, &plainMs}, {withSinks, true, &sinksMs},
			{bare, false, &untracedMs}, {bare, true, &tracedMs},
		} {
			d, err := run(step.cat, o, step.trace)
			if err != nil {
				return err
			}
			*step.into = append(*step.into, d)
		}
	}
	m.once("obs.sinks_overhead_share", "ratio", ratio(median(sinksMs)-median(plainMs), median(plainMs)), len(plainMs))
	m.once("obs.optrace_overhead_share", "ratio", ratio(median(tracedMs)-median(untracedMs), median(untracedMs)), len(tracedMs))
	return nil
}

// convoyProbe measures how much a short query is slowed by an unrelated
// long one: point queries alone, then the same kind of point queries while
// a quadratic correlated subquery loops on another goroutine. The catalog
// is a server's, with its sinks attached, because the wait is on the
// catalog's own lock.
func convoyProbe(m *metricSet, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cat := catalog.New()
	server.New(cat)
	const user = "convoy"
	if _, err := cat.CreateUser(user, ""); err != nil {
		return err
	}
	csv := newCSV("k,v")
	for i := 0; i < convoyRows; i++ {
		csv.int(i)
		csv.float(sixtyFourths(rng, 1000))
		csv.endRow()
	}
	if err := uploadInProcess(cat, user, "t", csv.bytes()); err != nil {
		return err
	}
	short := func() ([]float64, error) {
		var out []float64
		for i := 0; i < convoyShortQueries; i++ {
			// Arrive like a user, not back to back: a query that follows its
			// predecessor at once slips through before the long query has
			// taken its lock again, and would measure that gap.
			time.Sleep(time.Millisecond)
			d, err := timeIt(func() error {
				_, _, err := cat.QueryWithOptions(user, fmt.Sprintf("SELECT k, v FROM [t] WHERE k = %d", rng.Intn(convoyRows)),
					catalog.QueryOptions{Trace: true, NoCache: true})
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}
	alone, err := short()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	done := make(chan error, 1) // the one result of the one goroutine
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			_, _, err := cat.QueryWithOptions(user,
				"SELECT * FROM [t] AS o WHERE EXISTS (SELECT 1 FROM [t] AS i WHERE i.v > o.v)",
				catalog.QueryOptions{Trace: true, NoCache: true})
			if err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the first long query take its lock
	behind, err := short()
	close(stop)
	if lerr := <-done; lerr != nil {
		return lerr
	}
	if err != nil {
		return err
	}
	m.once("catalog.short_behind_long_ratio", "ratio", ratio(median(behind), median(alone)), len(behind))
	return nil
}

// shapeProbe times the eight analytic query shapes in-process over the
// analytic workload's tables, generated from the run's seed. Every traced
// run does this whatever its workload, so the engine's cost per shape is
// known next to each workload's numbers and is the same measurement
// everywhere.
func shapeProbe(m *metricSet, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w := genAnalytic(rng, sizes{Seconds: 1})
	cat := catalog.New()
	if err := loadCatalog(cat, &w.Setup); err != nil {
		return err
	}
	for _, shape := range analyticShapes {
		var times []float64
		for i := 0; i <= shapeRepeats; i++ {
			sql := analyticSQL(rng, shape, analyticFactRows)
			var execute time.Duration
			_, entry, err := cat.QueryWithOptions(analyticUser, sql, catalog.QueryOptions{Trace: true, NoCache: true})
			if err != nil {
				return fmt.Errorf("%s: %w", shape, err)
			}
			execute = entry.Execute
			if i > 0 { // the first run builds the column segments
				times = append(times, ms(execute))
			}
		}
		m.once("engine.q_"+shape+"_ms", "ms", median(times), len(times))
	}
	return nil
}
