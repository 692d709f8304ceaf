// keys.go holds the one representation every key-consuming operator reads
// its keys from. Sort, Distinct Sort (DISTINCT, UNION), grouped aggregation,
// INTERSECT/EXCEPT, window partitions and peers, hash join and the equality
// semi-probe each evaluate a key expression once per input row into a typed
// column — []int64, []float64, []string, or Unix nanoseconds for DATETIME —
// and then order, hash and compare row *indices* against those columns: no
// per-row key slice, no key string, no 72-byte Value copied into a
// comparison. A column whose non-NULL values are not all of one type (the
// homogeneity rule storage.buildVector applies to segments) is the single
// fallback kind: it keeps the Values, orders them by sqltypes.SortCompare
// and compares them for equality by Value.Key — the same code path, one more
// case of the kind switch. Every operator that puts rows into groups gets
// them from keySet.group, the one place that decides between comparing
// neighbours and hashing.
//
// Two relations are defined over a key set and both are pinned to sqltypes by
// FuzzKeyOrder: less is pointwise SortCompare (NULLs first, DESC applied,
// ties broken by row index, which makes it a total order and per-chunk sort +
// merge independent of the degree of parallelism); equal — and with it hash
// and the probe of a table by values — is equality of Value.Key (NULL equals
// NULL, -0.0 equals +0.0, NaN equals only NaN), except that a probing Int or
// Float meets the other as float64, the way Compare decides `=` between them.
package engine

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"

	"sqlshare/internal/sqltypes"
)

type keyKind uint8

const (
	keyInt    keyKind = iota // ints
	keyFloat                 // floats
	keyString                // strs
	keyTime                  // ints: Unix nanoseconds
	keyValue                 // vals ordered by SortCompare; strs holds their Value.Key()
)

// Bits of the "seen" mask a build pass collects next to 1<<kind.
const (
	seenNull = 1 << 8
	seenNaN  = 1 << 9
)

// keyCol is one key expression evaluated over every input row.
type keyCol struct {
	kind   keyKind
	ints   []int64
	floats []float64
	strs   []string
	vals   []sqltypes.Value
	null   []bool // nil when no row is NULL
	// ordered: cmp is a strict weak order whose ties are exactly the equal
	// keys — a typed column without NaN. Only then may a sort keep a bounded
	// heap and group find equal keys by comparing neighbours. NaN (which
	// SortCompare ties with everything) and mixed columns (whose coercing
	// comparisons are not transitive) take the full sort, whose outcome is
	// then the sort algorithm's but the same at every DOP, and the hash
	// table, which never compares for order.
	ordered bool
}

// keySet is the key columns of one operator input; desc is nil when every
// key ascends.
type keySet struct {
	cols []keyCol
	desc []bool
}

// maxNanoSec bounds the Unix seconds a DATETIME may have for its nanosecond
// count to fit an int64 (years 1685–2255); a column reaching beyond falls
// back to keyValue.
const maxNanoSec = 9e9

// buildKeys evaluates fns over in's rows, one morsel-parallel pass, into typed
// key columns. A task writes each value into the array of the value's own
// runtime type (arrays appear on first use) and reports the types it met; if
// a column met more than one, a second pass keeps its Values, and their key
// encodings, instead.
func buildKeys(ctx *ExecContext, n Node, in *relation, env *Env, fns []exprFn) (*keySet, error) {
	rows := in.len()
	ks := &keySet{cols: make([]keyCol, len(fns))}
	builds := make([]keyColBuild, len(fns))
	for j := range builds {
		ks.cols[j].null = make([]bool, rows)
		builds[j].col, builds[j].n = &ks.cols[j], rows
	}
	tasks := morselCount(rows)
	// seenByTask[t][j]: the value types task t met in column j.
	seenByTask := make([][]uint32, tasks)
	// pass evaluates every key of every row; the first pass puts the values
	// into typed arrays, the second (fallback) keeps those of mixed columns.
	pass := func(fallback bool) error {
		_, err := parallelRun(ctx, n, rows, tasks, func(t int) error {
			lo, hi := morselBounds(t, rows)
			ev := &Env{cols: in.cols, outer: env}
			rd := in.reader()
			seen := make([]uint32, len(fns))
			for i := lo; i < hi; i++ {
				ev.row = rd.row(i)
				for j, fn := range fns {
					v, err := fn(ctx, ev)
					if err != nil {
						return err
					}
					if !fallback {
						builds[j].put(i, v, &seen[j])
					} else if c := &ks.cols[j]; c.vals != nil {
						c.vals[i], c.strs[i] = v, v.Key()
					}
				}
			}
			seenByTask[t] = seen
			return nil
		})
		return err
	}
	if err := pass(false); err != nil {
		return nil, err
	}
	mixed := false
	for j := range builds {
		c := &ks.cols[j]
		var seen uint32
		for t := range seenByTask {
			seen |= seenByTask[t][j]
		}
		if seen&seenNull == 0 {
			c.null = nil
		}
		switch types := seen & 0xff; {
		case types == 0: // all NULL: any typed kind does, no value is ever read
			c.kind, c.ints, c.ordered = keyInt, make([]int64, rows), true
		case bits.OnesCount32(types) == 1 && types != 1<<keyValue:
			c.kind = keyKind(bits.TrailingZeros32(types))
			c.ordered = seen&seenNaN == 0
		default:
			mixed = true
			*c = keyCol{kind: keyValue, null: c.null, vals: make([]sqltypes.Value, rows), strs: make([]string, rows)}
		}
	}
	if mixed {
		return ks, pass(true)
	}
	return ks, nil
}

// keyColBuild is the shared state of one column's first build pass.
type keyColBuild struct {
	col  *keyCol
	n    int
	once [3]sync.Once // ints, floats, strs
}

func (b *keyColBuild) allocInts()   { b.col.ints = make([]int64, b.n) }
func (b *keyColBuild) allocFloats() { b.col.floats = make([]float64, b.n) }
func (b *keyColBuild) allocStrs()   { b.col.strs = make([]string, b.n) }

func (b *keyColBuild) put(i int, v sqltypes.Value, seen *uint32) {
	c := b.col
	if v.IsNull() {
		c.null[i] = true
		*seen |= seenNull
		return
	}
	switch v.Type() {
	case sqltypes.Int:
		b.once[0].Do(b.allocInts)
		c.ints[i] = v.Int()
		*seen |= 1 << keyInt
	case sqltypes.Float:
		b.once[1].Do(b.allocFloats)
		f := v.Float()
		c.floats[i] = f
		*seen |= 1 << keyFloat
		if f != f {
			*seen |= seenNaN
		}
	case sqltypes.String:
		b.once[2].Do(b.allocStrs)
		c.strs[i] = v.Str()
		*seen |= 1 << keyString
	case sqltypes.DateTime:
		t := v.Time()
		if sec := t.Unix(); sec < -maxNanoSec || sec > maxNanoSec {
			*seen |= 1 << keyValue
			return
		}
		b.once[0].Do(b.allocInts)
		c.ints[i] = t.UnixNano()
		*seen |= 1 << keyTime
	default:
		*seen |= 1 << keyValue
	}
}

// cmp orders rows a and b on this column exactly as SortCompare orders the
// values they were built from.
func (c *keyCol) cmp(a, b int) int {
	if c.null != nil && (c.null[a] || c.null[b]) {
		switch {
		case c.null[a] && c.null[b]:
			return 0
		case c.null[a]:
			return -1
		}
		return 1
	}
	switch c.kind {
	case keyInt, keyTime:
		x, y := c.ints[a], c.ints[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case keyFloat:
		x, y := c.floats[a], c.floats[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0 // NaN ties with everything, as in sqltypes.Compare
	case keyString:
		return strings.Compare(c.strs[a], c.strs[b])
	}
	return sqltypes.SortCompare(c.vals[a], c.vals[b])
}

// cmp orders rows a and b by the key columns in turn, DESC applied.
func (ks *keySet) cmp(a, b int) int {
	for j := range ks.cols {
		if c := ks.cols[j].cmp(a, b); c != 0 {
			if ks.desc != nil && ks.desc[j] {
				return -c
			}
			return c
		}
	}
	return 0
}

// less is the operator's sort order over row indices: cmp with ties broken
// by index, a total strict order.
func (ks *keySet) less(a, b int) bool {
	c := ks.cmp(a, b)
	return c < 0 || (c == 0 && a < b)
}

// ordered reports whether every column is; see keyCol.ordered.
func (ks *keySet) ordered() bool {
	for j := range ks.cols {
		if !ks.cols[j].ordered {
			return false
		}
	}
	return true
}

// bytes is the working memory the key columns hold beyond the input rows:
// the arrays themselves (string payloads are shared with the rows).
func (ks *keySet) bytes() int64 {
	var total int64
	for j := range ks.cols {
		c := &ks.cols[j]
		total += int64(len(c.null)) + 8*int64(len(c.ints)+len(c.floats)) + 16*int64(len(c.strs))
		for _, v := range c.vals {
			total += int64(v.SizeBytes())
		}
	}
	return total
}

func (c *keyCol) isNull(i int) bool { return c.null != nil && c.null[i] }

// anyNull reports whether any key of row i is NULL (such a row never joins).
func (ks *keySet) anyNull(i int) bool {
	for j := range ks.cols {
		if ks.cols[j].isNull(i) {
			return true
		}
	}
	return false
}

// equal reports whether rows i and j carry equal keys.
func (ks *keySet) equal(i, j int) bool {
	for c := range ks.cols {
		col := &ks.cols[c]
		if in, jn := col.isNull(i), col.isNull(j); in || jn {
			if in != jn {
				return false
			}
			continue
		}
		switch col.kind {
		case keyInt, keyTime:
			if col.ints[i] != col.ints[j] {
				return false
			}
		case keyFloat:
			if !floatKeysEqual(col.floats[i], col.floats[j]) {
				return false
			}
		default:
			if col.strs[i] != col.strs[j] {
				return false
			}
		}
	}
	return true
}

func floatKeysEqual(f, g float64) bool { return f == g || (f != f && g != g) }

var keySeed = maphash.MakeSeed()

const nullKeyHash = 0x9e3779b97f4a7c15

// mixHash folds one column's hash x into the running hash h (splitmix64's
// finalizer over the combination).
func mixHash(h, x uint64) uint64 {
	h = (h ^ x) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// hash is consistent with equal, and with probeKey.hash for a value that
// matches the row. Numbers hash by their float64 bits so an Int column can be
// probed with a Float and the other way round.
func (ks *keySet) hash(i int) uint64 {
	var h uint64
	for j := range ks.cols {
		c := &ks.cols[j]
		var x uint64
		switch {
		case c.isNull(i):
			x = nullKeyHash
		case c.kind == keyInt:
			x = sqltypes.FloatKeyBits(float64(c.ints[i]))
		case c.kind == keyTime:
			x = uint64(c.ints[i])
		case c.kind == keyFloat:
			x = sqltypes.FloatKeyBits(c.floats[i])
		default:
			x = maphash.String(keySeed, c.strs[i])
		}
		h = mixHash(h, x)
	}
	return h
}

// probeKey is one non-NULL value brought to the form the column it probes
// compares by: a hash join probes its typed build columns with the values of
// the other side, a semi-probe with the outer row's.
type probeKey struct {
	isInt bool // i holds an Int; otherwise a number is in f
	i     int64
	f     float64
	s     string
	hash  uint64
}

// probe prepares v as a key of this column. ok is false when no key of the
// column can equal v: the two are of different type classes, which never
// share a Value.Key (a caller whose equality coerces across classes, as `=`
// does between a string and a number, must then compare row by row).
func (c *keyCol) probe(v sqltypes.Value) (p probeKey, ok bool) {
	switch t := v.Type(); {
	case c.kind == keyValue:
		p.s = v.Key()
		p.hash = maphash.String(keySeed, p.s)
	case c.kind == keyString && t == sqltypes.String:
		p.s = v.Str()
		p.hash = maphash.String(keySeed, p.s)
	case c.kind == keyTime && t == sqltypes.DateTime:
		tm := v.Time()
		if sec := tm.Unix(); sec < -maxNanoSec || sec > maxNanoSec {
			return p, false
		}
		p.i = tm.UnixNano()
		p.hash = uint64(p.i)
	case (c.kind == keyInt || c.kind == keyFloat) && (t == sqltypes.Int || t == sqltypes.Bool):
		p.isInt, p.i, p.f = true, v.Int(), float64(v.Int())
		p.hash = sqltypes.FloatKeyBits(p.f)
	case (c.kind == keyInt || c.kind == keyFloat) && t == sqltypes.Float:
		p.f = v.Float()
		p.hash = sqltypes.FloatKeyBits(p.f)
	default:
		return p, false
	}
	return p, true
}

// matches reports whether the non-NULL key at row equals p. An Int meets an
// Int exactly and a Float as float64, which is how Compare decides `=`.
func (c *keyCol) matches(row int, p *probeKey) bool {
	switch c.kind {
	case keyInt:
		if p.isInt {
			return c.ints[row] == p.i
		}
		return float64(c.ints[row]) == p.f
	case keyFloat:
		return floatKeysEqual(c.floats[row], p.f)
	case keyTime:
		return c.ints[row] == p.i
	}
	return c.strs[row] == p.s
}

// keyTable assigns dense ids to the distinct keys of one key set, in
// first-seen order: an open-addressing table of ids over the typed columns.
type keyTable struct {
	keys   *keySet
	slots  []int32  // id+1; 0 = empty
	hashes []uint64 // by id
	first  []int32  // by id: the first row that carried the key
	// next chains the rows of one key in ascending row order from first[id]
	// (-1 ends the chain); only tables built by newRowTable have it.
	next []int32
}

func newKeyTable(keys *keySet) *keyTable {
	return &keyTable{keys: keys, slots: make([]int32, 64)}
}

// newRowTable indexes rows 0..n-1 of keys, skipping rows with a NULL key:
// the build side of a join.
func newRowTable(keys *keySet, n int) *keyTable {
	t := newKeyTable(keys)
	t.next = make([]int32, n)
	var last []int32 // by id: the newest row of the chain
	for i := 0; i < n; i++ {
		t.next[i] = -1
		if keys.anyNull(i) {
			continue
		}
		if id := t.assign(i); int(id) == len(last) {
			last = append(last, int32(i))
		} else {
			t.next[last[id]] = int32(i)
			last[id] = int32(i)
		}
	}
	return t
}

// find returns the id whose key hashes to h and satisfies eq (called with the
// key's first row), or -1.
func (t *keyTable) find(h uint64, eq func(row int) bool) int32 {
	mask := uint64(len(t.slots) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		id := t.slots[p] - 1
		if id < 0 {
			return -1
		}
		if t.hashes[id] == h && eq(int(t.first[id])) {
			return id
		}
	}
}

// assign returns the id of the key at row i, adding it when new.
func (t *keyTable) assign(i int) int32 {
	h := t.keys.hash(i)
	if id := t.find(h, func(row int) bool { return t.keys.equal(i, row) }); id >= 0 {
		return id
	}
	if 2*(len(t.first)+1) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		for id, h := range t.hashes {
			t.place(h, int32(id))
		}
	}
	id := int32(len(t.first))
	t.first = append(t.first, int32(i))
	t.hashes = append(t.hashes, h)
	t.place(h, id)
	return id
}

func (t *keyTable) place(h uint64, id int32) {
	mask := uint64(len(t.slots) - 1)
	p := h & mask
	for t.slots[p] != 0 {
		p = (p + 1) & mask
	}
	t.slots[p] = id + 1
}

// probe returns the first row whose key equals vals (one value per key
// column, in order; the rest of the rows follow through next), or -1. ok is
// false when some value is of another type class than its column (see
// keyCol.probe); scratch is reused across calls.
func (t *keyTable) probe(vals []sqltypes.Value, scratch []probeKey) (row int32, ok bool) {
	var h uint64
	for j, v := range vals {
		p, ok := t.keys.cols[j].probe(v)
		if !ok {
			return -1, false
		}
		scratch[j] = p
		h = mixHash(h, p.hash)
	}
	id := t.find(h, func(row int) bool {
		for j := range scratch {
			if !t.keys.cols[j].matches(row, &scratch[j]) {
				return false
			}
		}
		return true
	})
	if id < 0 {
		return -1, true
	}
	return t.first[id], true
}

// bytes is the table's own footprint (the key columns are charged apart).
func (t *keyTable) bytes() int64 {
	return 4*int64(len(t.slots)+len(t.next)) + 12*int64(len(t.first))
}

// grouping numbers the distinct keys of a row sequence in the order the
// sequence first meets them.
type grouping struct {
	ids   []int32   // ids[i]: the group of the sequence's i-th row
	first []int32   // by group: the first row of the sequence that carried it
	table *keyTable // nil when neighbours were compared
}

// group assigns the rows of a sequence — seq, or rows 0..n-1 when seq is nil
// — their groups: rows with equal keys share one. When sorted says the
// sequence follows cmp and every column is ordered, equal keys are adjacent
// and neighbours are compared; otherwise (NaN, mixed columns, unsorted input)
// every row goes through a keyTable. Both decide equality by equal, so the
// groups are the same either way.
func (ks *keySet) group(n int, seq []int, sorted bool) grouping {
	row := func(i int) int {
		if seq != nil {
			return seq[i]
		}
		return i
	}
	g := grouping{ids: make([]int32, n)}
	if sorted && ks.ordered() {
		for i := range g.ids {
			if i == 0 || !ks.equal(row(i-1), row(i)) {
				g.first = append(g.first, int32(row(i)))
			}
			g.ids[i] = int32(len(g.first) - 1)
		}
		return g
	}
	g.table = newKeyTable(ks)
	for i := range g.ids {
		g.ids[i] = g.table.assign(row(i))
	}
	g.first = g.table.first
	return g
}

// bytes is the grouping's working memory (the key columns are charged apart).
func (g *grouping) bytes() int64 {
	b := 4 * int64(len(g.ids))
	if g.table != nil {
		b += g.table.bytes()
	}
	return b
}

// colFn reads column idx of the current row: the key function of a bare
// column.
func colFn(idx int) exprFn {
	return func(_ *ExecContext, ev *Env) (sqltypes.Value, error) { return ev.row[idx], nil }
}

// keyFns is the key functions and directions of sort keys.
func keyFns(keys []sortKey) (fns []exprFn, desc []bool) {
	fns, desc = make([]exprFn, len(keys)), make([]bool, len(keys))
	for j, k := range keys {
		fns[j], desc[j] = k.fn, k.desc
		if k.fn == nil {
			fns[j] = colFn(k.idx)
		}
	}
	return fns, desc
}
