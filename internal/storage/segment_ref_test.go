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

// buildVectorRef is the earlier segment builder, kept as the oracle for the
// typed one: it orders every zone map by SortCompare and sums SizeBytes
// cell by cell.
func buildVectorRef(rows []Row, col int) Vector {
	n := len(rows)
	var v Vector
	homogeneous := true
	var typ sqltypes.Type
	seen := false
	for i := 0; i < n; i++ {
		val := rows[i][col]
		v.Bytes += int64(val.SizeBytes())
		if val.IsNull() {
			if v.nulls == nil {
				v.nulls = make([]uint64, (n+63)/64)
			}
			v.nulls[i>>6] |= 1 << uint(i&63)
			v.HasNulls = true
			continue
		}
		t := val.Type()
		if !seen {
			seen = true
			typ = t
			v.Min, v.Max = val, val
		} else {
			if t != typ {
				homogeneous = false
			}
			if sqltypes.SortCompare(val, v.Min) < 0 {
				v.Min = val
			}
			if sqltypes.SortCompare(val, v.Max) > 0 {
				v.Max = val
			}
		}
	}
	if !seen {
		v.AllNull = true
		v.Enc = EncValues
		return v
	}
	if !homogeneous {
		v.Enc = EncValues
		return v
	}
	switch typ {
	case sqltypes.Int:
		v.Enc = EncInt
		v.Ints = make([]int64, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Ints[i] = rows[i][col].Int()
			}
		}
	case sqltypes.Float:
		v.Enc = EncFloat
		v.Floats = make([]float64, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				f := rows[i][col].Float()
				v.Floats[i] = f
				if math.IsNaN(f) {
					v.NoPrune = true
				}
			}
		}
	case sqltypes.Bool:
		v.Enc = EncBool
		v.Bools = make([]bool, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Bools[i] = rows[i][col].Bool()
			}
		}
	case sqltypes.DateTime:
		v.Enc = EncTime
		v.Times = make([]int64, n)
		for i := 0; i < n; i++ {
			if val := rows[i][col]; !val.IsNull() {
				ns, ok := val.UnixNano()
				if !ok {
					v.Enc, v.Times = EncValues, nil
					break
				}
				v.Times[i] = ns
			}
		}
	case sqltypes.String:
		encodeStringsRef(rows, col, &v)
	default:
		v.Enc = EncValues
	}
	return v
}

func encodeStringsRef(rows []Row, col int, v *Vector) {
	n := len(rows)
	distinct := make(map[string]uint16, 16)
	for i := 0; i < n && len(distinct) <= dictMaxCard; i++ {
		if !rows[i][col].IsNull() {
			distinct[rows[i][col].Str()] = 0
		}
	}
	if len(distinct) > dictMaxCard {
		v.Enc = EncString
		v.Strs = make([]string, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Strs[i] = rows[i][col].Str()
			}
		}
		return
	}
	v.Enc = EncDict
	v.Dict = make([]string, 0, len(distinct))
	for s := range distinct {
		v.Dict = append(v.Dict, s)
	}
	sort.Strings(v.Dict)
	for code, s := range v.Dict {
		distinct[s] = uint16(code)
	}
	v.Codes = make([]uint16, n)
	for i := 0; i < n; i++ {
		if !rows[i][col].IsNull() {
			v.Codes[i] = distinct[rows[i][col].Str()]
		}
	}
}

// sameSlice reports whether a and b are both nil, or both non-nil with
// equal elements under eq.
func sameSlice[T any](a, b []T, eq func(x, y T) bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func eqOf[T comparable](x, y T) bool { return x == y }

// diffVectors names the first field in which got and want differ, or "".
// Floats compare by their bits, so NaN matches NaN and -0 differs from +0.
func diffVectors(got, want Vector) string {
	switch {
	case got.Enc != want.Enc:
		return fmt.Sprintf("Enc %d, want %d", got.Enc, want.Enc)
	case !sameSlice(got.Ints, want.Ints, eqOf[int64]):
		return "Ints"
	case !sameSlice(got.Floats, want.Floats, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }):
		return "Floats"
	case !sameSlice(got.Bools, want.Bools, eqOf[bool]):
		return "Bools"
	case !sameSlice(got.Times, want.Times, eqOf[int64]):
		return "Times"
	case !sameSlice(got.Strs, want.Strs, eqOf[string]):
		return "Strs"
	case !sameSlice(got.Codes, want.Codes, eqOf[uint16]):
		return "Codes"
	case !sameSlice(got.Dict, want.Dict, eqOf[string]):
		return "Dict"
	case !sameSlice(got.nulls, want.nulls, eqOf[uint64]):
		return "nulls"
	case got.Min != want.Min:
		return fmt.Sprintf("Min %v (%s), want %v (%s)", got.Min, got.Min.Type(), want.Min, want.Min.Type())
	case got.Max != want.Max:
		return fmt.Sprintf("Max %v (%s), want %v (%s)", got.Max, got.Max.Type(), want.Max, want.Max.Type())
	case got.HasNulls != want.HasNulls, got.AllNull != want.AllNull, got.NoPrune != want.NoPrune:
		return fmt.Sprintf("flags %v/%v/%v, want %v/%v/%v",
			got.HasNulls, got.AllNull, got.NoPrune, want.HasNulls, want.AllNull, want.NoPrune)
	case got.Bytes != want.Bytes:
		return fmt.Sprintf("Bytes %d, want %d", got.Bytes, want.Bytes)
	}
	return ""
}

// TestSegmentBuildMatchesReference: the typed builder produces every
// Vector field exactly as the SortCompare builder did, over hand-made edge
// columns and random ones.
func TestSegmentBuildMatchesReference(t *testing.T) {
	utc := func(sec int64, ns int64) sqltypes.Value { return sqltypes.NewDateTime(time.Unix(sec, ns)) }
	null := sqltypes.NullValue()
	f := sqltypes.NewFloat
	i := sqltypes.NewInt
	s := sqltypes.NewString
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	manyStrings := func(k int) []sqltypes.Value {
		out := make([]sqltypes.Value, k)
		for j := range out {
			out[j] = s(fmt.Sprintf("v%03d", (j*37)%k))
		}
		return out
	}
	cols := map[string][]sqltypes.Value{
		"empty":         {},
		"all null":      {null, sqltypes.TypedNull(sqltypes.Int), sqltypes.TypedNull(sqltypes.String)},
		"ints":          {i(3), null, i(-7), i(3), i(math.MaxInt64), i(math.MinInt64), i(math.MinInt64)},
		"int equal":     {i(5), i(5), i(5)},
		"floats":        {f(1.5), f(negZero), f(0), null, f(-inf), f(inf), f(inf), f(-inf)},
		"zero first":    {f(0), f(negZero), f(0)},
		"nan first":     {f(nan), f(1), f(-1), null},
		"nan later":     {f(2), f(nan), f(-3), f(9)},
		"all nan":       {f(nan), f(nan)},
		"bools":         {sqltypes.NewBool(true), null, sqltypes.NewBool(false), sqltypes.NewBool(true)},
		"bools true":    {sqltypes.NewBool(true), sqltypes.NewBool(true)},
		"times":         {utc(100, 5), utc(100, 4), null, utc(-100, 999999999), utc(1e9, 0)},
		"times beyond":  {utc(100, 0), utc(9e9+1, 0), utc(-9e9-1, 3), null},
		"times edge":    {utc(9e9, 999999999), utc(-9e9, 0)},
		"strings":       {s("b"), s(""), null, s("a"), s("b"), s("\xff")},
		"many strings":  manyStrings(300),
		"dict boundary": manyStrings(256),
		"over boundary": manyStrings(257),
		"mixed num":     {i(2), f(1.5), sqltypes.NewBool(true), null, f(nan)},
		"mixed text":    {s("10"), i(5), s("3"), s("abc"), utc(7, 0), s("2014-01-01")},
		"int then bool": {i(0), sqltypes.NewBool(false)},
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 200; k++ {
		col := make([]sqltypes.Value, rng.Intn(70))
		kind := rng.Intn(3)
		for j := range col {
			switch {
			case rng.Intn(6) == 0:
				col[j] = sqltypes.TypedNull(sqltypes.Float)
			case kind == 0:
				col[j] = randValue(rng)
			case kind == 1:
				col[j] = f(float64(rng.Intn(9)-4) / 2)
			default:
				col[j] = s(fmt.Sprintf("r%d", rng.Intn(5)))
			}
		}
		cols[fmt.Sprintf("random %d", k)] = col
	}
	for name, col := range cols {
		rows := make([]Row, len(col))
		for j, v := range col {
			rows[j] = Row{i(int64(j)), v}
		}
		if d := diffVectors(buildVector(rows, 1), buildVectorRef(rows, 1)); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}
