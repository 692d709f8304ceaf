package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sqlshare/internal/sqltypes"
)

// insertRef is the earlier Insert over plain slices: it always copies and
// stable-sorts the batch, then appends it or merges it in from the first
// existing row it sorts before, existing rows first on ties.
func insertRef(existing, rows []Row) []Row {
	batch := append([]Row(nil), rows...)
	sort.SliceStable(batch, func(i, j int) bool { return compareRows(batch[i], batch[j]) < 0 })
	n := len(existing)
	if n == 0 || compareRows(batch[0], existing[n-1]) >= 0 {
		return append(append([]Row(nil), existing...), batch...)
	}
	pos := sort.Search(n, func(i int) bool { return compareRows(batch[0], existing[i]) < 0 })
	merged := append([]Row(nil), existing[:pos]...)
	i, j := pos, 0
	for i < n && j < len(batch) {
		if compareRows(batch[j], existing[i]) < 0 {
			merged = append(merged, batch[j])
			j++
		} else {
			merged = append(merged, existing[i])
			i++
		}
	}
	merged = append(merged, existing[i:]...)
	return append(merged, batch[j:]...)
}

// sameCells reports whether two rows hold the same cells, bit for bit.
func sameCells(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// TestInsertBatchShapesMatchStableSort: whatever order a batch arrives in,
// and whether or not Insert sorts it, the table holds exactly the rows — the
// same cells, bit for bit, in the same order — that the earlier Insert held, and
// those are the rows a stable sort of append(existing, batch...) holds.
// SortCompare is not a total order over a NaN (it ties every number) or
// over numeric strings mixed with numbers, and there merging into a
// non-empty table is not a sort of the whole; for those "partial" batches
// the earlier Insert alone is the oracle.
func TestInsertBatchShapesMatchStableSort(t *testing.T) {
	smallSegments(t, 4)
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	null := sqltypes.TypedNull(sqltypes.Int)
	nan := math.NaN()
	seq := func(from, to, step int) []Row {
		var out []Row
		for k := from; k != to; k += step {
			out = append(out, Row{i(int64(k)), s(fmt.Sprintf("v%d", k%3))})
		}
		return out
	}
	batches := map[string]func() []Row{
		"sorted":   func() []Row { return seq(0, 30, 1) },
		"reversed": func() []Row { return seq(29, -1, -1) },
		"equal keys": func() []Row {
			return []Row{{i(4), s("x")}, {i(4), s("x")}, {i(4), s("x")}, {i(2), s("x")}, {i(2), s("x")}}
		},
		"equal keys sorted": func() []Row {
			return []Row{{i(2), s("x")}, {i(2), s("x")}, {i(4), s("x")}, {i(4), s("x")}}
		},
		"nulls": func() []Row {
			return []Row{{null, s("b")}, {i(1), sqltypes.TypedNull(sqltypes.String)}, {null, s("a")}, {i(0), s("c")}}
		},
		"nulls sorted": func() []Row {
			return []Row{{null, s("a")}, {null, s("a")}, {i(0), sqltypes.TypedNull(sqltypes.String)}, {i(0), s("c")}}
		},
		"partial: nan": func() []Row {
			return []Row{{f(3), s("a")}, {f(nan), s("a")}, {f(1), s("a")}, {f(2), s("a")}}
		},
		"partial: nan sorted pairs": func() []Row {
			return []Row{{f(1), s("a")}, {f(nan), s("a")}, {f(0.5), s("a")}}
		},
		// No row sorts before its neighbour, yet 100 sorts after the 1
		// beyond the NaN: past 20 rows the stable sort's block merge moves it.
		"partial: nan no adjacent descent": func() []Row {
			var out []Row
			for _, x := range []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 100, nan, 1, 2, 3} {
				out = append(out, Row{f(x), s("a")})
			}
			return out
		},
		// Numeric strings sort among numbers but by text among strings:
		// 19 < "20" < "3" < 4, yet "3" sorts before 19.
		"partial: mixed no adjacent descent": func() []Row {
			var out []Row
			for k := 0; k < 20; k++ {
				out = append(out, Row{i(int64(k)), s("a")})
			}
			return append(out, Row{s("20"), s("a")}, Row{s("3"), s("a")}, Row{i(4), s("a")})
		},
		"mixed types": func() []Row {
			return []Row{{i(2), s("a")}, {f(1.5), s("b")}, {s("abc"), s("c")}, {sqltypes.NewBool(true), s("d")}, {i(1), s("e")}}
		},
		"mixed types in order": func() []Row {
			return []Row{{i(1), s("a")}, {f(1.5), s("b")}, {i(2), s("c")}, {s("abc"), s("d")}}
		},
	}
	existing := map[string]func() []Row{
		"empty":     func() []Row { return nil },
		"non-empty": func() []Row { return seq(-3, 35, 2) },
	}
	for bname, batch := range batches {
		for ename, prior := range existing {
			tbl := NewTable("t", Schema{{Name: "a", Type: sqltypes.Int}, {Name: "b", Type: sqltypes.String}})
			old := prior()
			if len(old) > 0 {
				if err := tbl.Insert(old); err != nil {
					t.Fatal(err)
				}
			}
			rows := batch()
			existing := tbl.Scan()
			want := insertRef(existing, rows)
			if !strings.HasPrefix(bname, "partial") || len(old) == 0 {
				sorted := append(append([]Row(nil), existing...), rows...)
				sort.SliceStable(sorted, func(x, y int) bool { return compareRows(sorted[x], sorted[y]) < 0 })
				for k := range sorted {
					if &sorted[k][0] != &want[k][0] {
						t.Fatalf("%s into %s: the earlier Insert is not a stable sort at row %d", bname, ename, k)
					}
				}
			}
			if err := tbl.Insert(rows); err != nil {
				t.Fatal(err)
			}
			// The caller's slice is the caller's: changing it changes nothing.
			for k := range rows {
				rows[k] = Row{i(99), s("mutated")}
			}
			got := tbl.Scan()
			if len(got) != len(want) {
				t.Fatalf("%s into %s: %d rows, want %d", bname, ename, len(got), len(want))
			}
			for k := range want {
				if !sameCells(got[k], want[k]) {
					t.Errorf("%s into %s: row %d is %v, want %v", bname, ename, k, got[k], want[k])
				}
			}
			_, segs := tbl.ScanSegments()
			if n := len(segs); n != (len(want)+3)/4 {
				t.Errorf("%s into %s: %d segments for %d rows", bname, ename, n, len(want))
			}
		}
	}
}

// TestInsertMatchesReferenceRandom drives random batches — mixed types,
// NaN, NULLs, runs long enough for the stable sort to merge blocks, some
// already in order — into one table and compares it with the earlier
// Insert after every batch.
func TestInsertMatchesReferenceRandom(t *testing.T) {
	smallSegments(t, 8)
	rng := rand.New(rand.NewSource(29))
	tbl := NewTable("t", Schema{{Name: "a", Type: sqltypes.Int}, {Name: "b", Type: sqltypes.Float}})
	var ref []Row
	for b := 0; b < 60; b++ {
		rows := make([]Row, 1+rng.Intn(60))
		for k := range rows {
			var a sqltypes.Value
			switch b % 3 {
			case 0:
				a = randValue(rng)
			default:
				a = sqltypes.NewInt(int64(rng.Intn(40)))
			}
			x := sqltypes.NewFloat(float64(rng.Intn(6)))
			if b%4 == 1 && rng.Intn(5) == 0 {
				x = sqltypes.NewFloat(math.NaN())
			}
			rows[k] = Row{a, x}
		}
		if b%2 == 0 {
			sort.SliceStable(rows, func(x, y int) bool { return compareRows(rows[x], rows[y]) < 0 })
		}
		ref = insertRef(ref, rows)
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		got := tbl.Scan()
		for k := range ref {
			if !sameCells(got[k], ref[k]) {
				t.Fatalf("batch %d: row %d is %v, want %v", b, k, got[k], ref[k])
			}
		}
	}
}
