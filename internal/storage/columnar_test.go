package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
)

// smallSegments shrinks the segment size for the duration of one test so
// tiny tables span many segments.
func smallSegments(t testing.TB, n int) {
	t.Helper()
	prev := SetSegmentRows(n)
	t.Cleanup(func() { SetSegmentRows(prev) })
}

func randValue(rng *rand.Rand) sqltypes.Value {
	switch rng.Intn(6) {
	case 0:
		return sqltypes.NewInt(int64(rng.Intn(50)))
	case 1:
		return sqltypes.NewFloat(float64(rng.Intn(400)) / 8)
	case 2:
		return sqltypes.NewString(fmt.Sprintf("s%02d", rng.Intn(40)))
	case 3:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	case 4:
		return sqltypes.TypedNull(sqltypes.Int)
	default:
		return sqltypes.NewDateTime(time.Date(2014, 1, 1+rng.Intn(300), 0, 0, 0, 0, time.UTC))
	}
}

// TestInsertMergeMatchesSortOracle drives a table through many random
// insert batches and checks, after every batch, that the merge-based
// Insert produces exactly the row order of the seed implementation: append
// everything and stable-sort the whole table.
func TestInsertMergeMatchesSortOracle(t *testing.T) {
	smallSegments(t, 8)
	schema := Schema{
		{Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.String},
	}
	tbl := NewTable("t", schema)
	rng := rand.New(rand.NewSource(11))
	var oracle []Row
	for batch := 0; batch < 40; batch++ {
		k := rng.Intn(7) + 1
		rows := make([]Row, k)
		for i := range rows {
			rows[i] = Row{randValue(rng), sqltypes.NewString(fmt.Sprintf("v%d", rng.Intn(9)))}
		}
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			oracle = append(oracle, r.Clone())
		}
		sort.SliceStable(oracle, func(i, j int) bool {
			return compareRows(oracle[i], oracle[j]) < 0
		})
		got := tbl.Scan()
		if len(got) != len(oracle) {
			t.Fatalf("batch %d: %d rows, want %d", batch, len(got), len(oracle))
		}
		for i := range got {
			for c := range got[i] {
				if got[i][c].Key() != oracle[i][c].Key() {
					t.Fatalf("batch %d row %d col %d: got %v want %v", batch, i, c, got[i][c], oracle[i][c])
				}
			}
		}
	}
}

// TestRowsFromSegmentsRoundTrip: segments are the only copy of a table, so
// every inserted cell must read back from them bit for bit — through Scan,
// a seek's span and Data — whatever the column's encoding: -0.0 and NaN
// payloads, every form of NULL (the zero Value, NullValue, a NULL typed
// for any column), DATETIMEs beyond MaxNanoSec, and cells whose type is not
// the column's. Batches arrive out of order, so the merge path re-encodes
// from segments it decoded.
func TestRowsFromSegmentsRoundTrip(t *testing.T) {
	smallSegments(t, 16)
	schema := Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "i", Type: sqltypes.Int},
		{Name: "f", Type: sqltypes.Float},
		{Name: "s", Type: sqltypes.String},
		{Name: "b", Type: sqltypes.Bool},
		{Name: "d", Type: sqltypes.DateTime},
		{Name: "m", Type: sqltypes.String},
	}
	nulls := []sqltypes.Value{{}, sqltypes.NullValue()}
	for typ := sqltypes.Bool; typ <= sqltypes.String; typ++ {
		nulls = append(nulls, sqltypes.TypedNull(typ))
	}
	odd := []sqltypes.Value{
		sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewDateTime(time.Date(2300, 1, 1, 0, 0, 0, 1, time.UTC)),
		sqltypes.NewDateTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
		sqltypes.NewDateTime(time.Unix(-1, 999999999)),
		sqltypes.NewInt(math.MinInt64),
		sqltypes.NewBool(true),
		sqltypes.NewString(""),
		sqltypes.NewString("\xff"),
	}
	rng := rand.New(rand.NewSource(5))
	cell := func(typical sqltypes.Value) sqltypes.Value {
		switch rng.Intn(12) {
		case 0:
			return nulls[rng.Intn(len(nulls))]
		case 1:
			if rng.Intn(4) == 0 { // mostly one type per segment, sometimes not
				return odd[rng.Intn(len(odd))]
			}
		}
		return typical
	}
	const n = 333
	want := make([]Row, n)
	for k := range want {
		want[k] = Row{
			sqltypes.NewInt(int64(k)),
			cell(sqltypes.NewInt(int64(rng.Intn(1000)))),
			cell(sqltypes.NewFloat(rng.NormFloat64())),
			cell(sqltypes.NewString(fmt.Sprintf("str-%03d", rng.Intn(20+rng.Intn(500))))),
			cell(sqltypes.NewBool(rng.Intn(2) == 0)),
			cell(sqltypes.NewDateTime(time.Unix(rng.Int63n(4e9)-2e9, rng.Int63n(1e9)))),
			randValue(rng),
		}
	}
	tbl := NewTable("t", schema)
	order := rng.Perm(n)
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(60))
		batch := make([]Row, 0, hi-lo)
		for _, k := range order[lo:hi] {
			batch = append(batch, want[k].Clone())
		}
		if err := tbl.Insert(batch); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	check := func(how string, got []Row) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d rows, want %d", how, len(got), n)
		}
		for k := range want {
			for c := range want[k] {
				if got[k][c] != want[k][c] {
					t.Fatalf("%s: row %d col %s reads %v (%s), inserted %v (%s)", how, k, schema[c].Name,
						got[k][c], got[k][c].Type(), want[k][c], want[k][c].Type())
				}
			}
		}
	}
	check("Scan", tbl.Scan())
	check("SeekRange", spanRows(tbl.SeekRange(sqltypes.Value{}, sqltypes.Value{}, true, true)))
	decoded, err := tbl.Data().Table()
	if err != nil {
		t.Fatal(err)
	}
	// Data keeps every cell but the zero Value, which it holds as NullValue.
	for k := range want {
		for c, v := range want[k] {
			if v == (sqltypes.Value{}) {
				want[k][c] = sqltypes.NullValue()
			}
		}
	}
	check("Data", decoded.Scan())
	encodings := map[Encoding]bool{}
	_, segs := tbl.ScanSegments()
	for _, sg := range segs {
		for c := range schema {
			encodings[sg.Col(c).Enc] = true
		}
	}
	for _, enc := range []Encoding{EncValues, EncInt, EncFloat, EncBool, EncTime, EncDict} {
		if !encodings[enc] {
			t.Errorf("no segment encoded %d: the round trip did not cover it", enc)
		}
	}
}

// TestAllNullAndMixedVectors covers the zone-map edge cases: an all-NULL
// segment has no zone map and falls back to EncValues, and a column whose
// non-null values mix types (after widening-style ingest) also degrades to
// EncValues without losing null tracking.
func TestAllNullAndMixedVectors(t *testing.T) {
	smallSegments(t, 4)
	tbl := NewTable("t", Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "x", Type: sqltypes.String},
	})
	var batch []Row
	for i := 0; i < 8; i++ {
		batch = append(batch, Row{sqltypes.NewInt(int64(i)), sqltypes.TypedNull(sqltypes.String)})
	}
	if err := tbl.Insert(batch); err != nil {
		t.Fatal(err)
	}
	_, segs := tbl.ScanSegments()
	for si, sg := range segs {
		vec := sg.Col(1)
		if !vec.AllNull || !vec.HasNulls || vec.Enc != EncValues {
			t.Fatalf("seg %d: all-NULL vector misclassified: %+v", si, vec)
		}
	}
	if err := tbl.Insert([]Row{
		{sqltypes.NewInt(100), sqltypes.NewString("a")},
		{sqltypes.NewInt(101), sqltypes.NewInt(7)}, // type conflict in one segment
		{sqltypes.NewInt(102), sqltypes.TypedNull(sqltypes.String)},
		{sqltypes.NewInt(103), sqltypes.NewString("b")},
	}); err != nil {
		t.Fatal(err)
	}
	_, segs = tbl.ScanSegments()
	last := segs[len(segs)-1]
	vec := last.Col(1)
	if vec.Enc != EncValues || vec.AllNull {
		t.Fatalf("mixed-type vector should be EncValues, got %+v", vec)
	}
	if !vec.HasNulls || !vec.IsNull(2) {
		t.Fatalf("mixed-type vector lost null tracking: %+v", vec)
	}
}

// TestDateTimeVectorNanoRange: a DATETIME vector holds Unix nanoseconds
// when every value of its segment fits them, and falls back to EncValues
// when one lies beyond sqltypes.MaxNanoSec seconds of the epoch.
func TestDateTimeVectorNanoRange(t *testing.T) {
	smallSegments(t, 2)
	tbl := NewTable("t", Schema{{Name: "d", Type: sqltypes.DateTime}})
	in := time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC)
	if err := tbl.Insert([]Row{
		{sqltypes.NewDateTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC))},
		{sqltypes.NewDateTime(in)},
		{sqltypes.TypedNull(sqltypes.DateTime)},
		{sqltypes.NewDateTime(in.Add(1))},
		{sqltypes.NewDateTime(time.Date(2255, 1, 1, 0, 0, 0, 0, time.UTC))},
		{sqltypes.NewDateTime(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC))},
	}); err != nil {
		t.Fatal(err)
	}
	// Clustered order: NULL, 0001, the two around the epoch, 2255, 2300.
	_, segs := tbl.ScanSegments()
	wantEnc := []Encoding{EncValues, EncTime, EncValues}
	for si, sg := range segs {
		if vec := sg.Col(0); vec.Enc != wantEnc[si] {
			t.Fatalf("seg %d: encoding %d, want %d", si, vec.Enc, wantEnc[si])
		}
	}
	if vec := segs[1].Col(0); vec.Times[0] != -1 || vec.Times[1] != 0 {
		t.Fatalf("seg 1: times %v, want [-1 0]", vec.Times)
	}
	if vec := segs[0].Col(0); !vec.IsNull(0) || vec.IsNull(1) {
		t.Fatal("seg 0: lost its NULL")
	}
}

// TestDictionaryOverflow checks both sides of the per-segment dictionary
// cardinality limit.
func TestDictionaryOverflow(t *testing.T) {
	smallSegments(t, 1024)
	low := NewTable("low", Schema{{Name: "s", Type: sqltypes.String}})
	var rows []Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, Row{sqltypes.NewString(fmt.Sprintf("v%02d", i%40))})
	}
	if err := low.Insert(rows); err != nil {
		t.Fatal(err)
	}
	_, segs := low.ScanSegments()
	vec := segs[0].Col(0)
	if vec.Enc != EncDict {
		t.Fatalf("low-cardinality column should dictionary-encode, got enc %d", vec.Enc)
	}
	if len(vec.Dict) != 40 || !sort.StringsAreSorted(vec.Dict) {
		t.Fatalf("dictionary wrong: %v", vec.Dict)
	}

	high := NewTable("high", Schema{{Name: "s", Type: sqltypes.String}})
	rows = nil
	for i := 0; i < 1000; i++ { // 1000 distinct > dictMaxCard
		rows = append(rows, Row{sqltypes.NewString(fmt.Sprintf("u%04d", i))})
	}
	if err := high.Insert(rows); err != nil {
		t.Fatal(err)
	}
	_, segs = high.ScanSegments()
	if enc := segs[0].Col(0).Enc; enc != EncString {
		t.Fatalf("dictionary overflow should fall back to plain strings, got enc %d", enc)
	}
}

// TestFloatNaNDisablesPruning: a segment containing NaN has no usable
// ordering bound (NaN compares equal to everything in the engine's float
// order), so its vector must advertise NoPrune.
func TestFloatNaNDisablesPruning(t *testing.T) {
	smallSegments(t, 4)
	tbl := NewTable("t", Schema{{Name: "f", Type: sqltypes.Float}})
	if err := tbl.Insert([]Row{
		{sqltypes.NewFloat(1)}, {sqltypes.NewFloat(2)},
		{sqltypes.NewFloat(math.NaN())}, {sqltypes.NewFloat(3)},
	}); err != nil {
		t.Fatal(err)
	}
	_, segs := tbl.ScanSegments()
	sawNoPrune := false
	for _, sg := range segs {
		if sg.Col(0).NoPrune {
			sawNoPrune = true
		}
	}
	if !sawNoPrune {
		t.Fatal("segment containing NaN must set NoPrune")
	}
}

// TestRowSizeBytesMeasured: non-empty tables report measured widths (long
// strings weigh more than short ones), empty tables keep the schema
// heuristic.
func TestRowSizeBytesMeasured(t *testing.T) {
	schema := Schema{{Name: "s", Type: sqltypes.String}}
	empty := NewTable("e", schema)
	if empty.RowSizeBytes() != 24 {
		t.Fatalf("empty table heuristic = %d, want 24", empty.RowSizeBytes())
	}
	short := NewTable("s", schema)
	long := NewTable("l", schema)
	var shortRows, longRows []Row
	for i := 0; i < 100; i++ {
		shortRows = append(shortRows, Row{sqltypes.NewString("ab")})
		longRows = append(longRows, Row{sqltypes.NewString(fmt.Sprintf("%0200d", i))})
	}
	if err := short.Insert(shortRows); err != nil {
		t.Fatal(err)
	}
	if err := long.Insert(longRows); err != nil {
		t.Fatal(err)
	}
	if short.RowSizeBytes() >= long.RowSizeBytes() {
		t.Fatalf("measured widths not ordered: short=%d long=%d", short.RowSizeBytes(), long.RowSizeBytes())
	}
}

// BenchmarkAppendSmallBatches is the regression benchmark for the
// satellite fix: repeated small appends into a large table used to re-sort
// every row, O(n log n) per batch; the merge path is O(n + k log k) and
// rebuilds only the segments at or after the insertion point.
func BenchmarkAppendSmallBatches(b *testing.B) {
	schema := Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Float},
	}
	tbl := NewTable("t", schema)
	var seedRows []Row
	for i := 0; i < 20000; i++ {
		seedRows = append(seedRows, Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i))})
	}
	if err := tbl.Insert(seedRows); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]Row, 10)
		for j := range batch {
			id := int64(rng.Intn(40000))
			batch[j] = Row{sqltypes.NewInt(id), sqltypes.NewFloat(float64(id))}
		}
		if err := tbl.Insert(batch); err != nil {
			b.Fatal(err)
		}
	}
}
