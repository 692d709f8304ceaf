// keys.go holds the one representation every key-consuming operator reads
// its keys from. Sort, Distinct Sort (DISTINCT, UNION), grouped aggregation,
// INTERSECT/EXCEPT, window partitions and peers, hash join and the equality
// semi-probe each evaluate a key expression once per input row into a typed
// column, and then order, hash and compare row *indices* against those
// columns: no per-row key slice, no key string, no 32-byte Value copied into
// a comparison.
//
// An ordered column — INT, DATETIME, FLOAT without NaN, and a bare VARCHAR
// column gathered from dictionary-encoded segments — is one []uint64 of
// order-preserving codes. NULL is code 0, below every value; an INT, or a
// DATETIME's Unix nanoseconds, is its bits with the sign flipped; a FLOAT is
// its bits flipped so that they order as the number does, -0.0 first made
// +0.0; a dictionary string is its rank, plus one, in the sorted union of the
// dictionaries of the segments the column's rows were gathered from, merged
// once per key column. The array holds no pointer, so the GC does not scan
// it, and ordering, equating or hashing a row's key is one integer operation
// per column, with no switch on its kind. The other columns keep their
// values and a NULL mask: a VARCHAR read from EncString segments or computed
// is []string under strings.Compare, a FLOAT holding NaN is []float64, and a
// column whose non-NULL values are not all of one type (the homogeneity rule
// storage.buildVector applies to segments) keeps the Values, orders them by
// sqltypes.SortCompare and compares them for equality by Value.Key. Every
// operator that puts rows into groups gets them from keySet.group, the one
// place that decides between comparing neighbours and a keyTable, and every
// operator that orders rows has them ordered by keySet.sortRows or
// keySet.sortGroups, which choose the comparison once per key set (and sort
// whole chunks of a coded key set by radix).
//
// Two relations are defined over a key set and both are pinned to sqltypes by
// FuzzKeyOrder (and, for keys gathered from segments, FuzzKeyOrderSegments):
// less is pointwise SortCompare (NULLs first, DESC applied, ties broken by
// row index, which makes it a total order and per-chunk sort + merge
// independent of the degree of parallelism); equal — and with it hash and
// the probe of a table by values — is equality of Value.Key (NULL equals
// NULL, -0.0 equals +0.0, NaN equals only NaN), except that a probing Int or
// Float meets the other as float64, the way Compare decides `=` between them.
package engine

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

type keyKind uint8

const (
	keyInt    keyKind = iota // codes: intCode
	keyFloat                 // codes: floatCode; floats when the column holds NaN
	keyString                // strs
	keyTime                  // codes: intCode of the Unix nanoseconds
	keyValue                 // vals ordered by SortCompare; strs holds their Value.Key()
	keyDict                  // codes: the string's rank in dict, plus one
)

// Bits of the "seen" mask a build pass collects next to 1<<kind.
const (
	seenNull = 1 << 8
	seenNaN  = 1 << 9
)

// nullCode is NULL's code in every coded column, below every value's.
const nullCode = 0

const signBit = 1 << 63

// intCode is the order-preserving code of an INT or of a DATETIME's Unix
// nanoseconds. Only math.MinInt64 would get nullCode: a column holding that
// INT keeps its Values instead (see putInt).
func intCode(x int64) uint64 { return uint64(x) ^ signBit }

func codeInt(c uint64) int64 { return int64(c ^ signBit) }

// floatCode is the order-preserving code of a FLOAT: a positive number's bits
// with the sign set, a negative number's flipped whole. -0.0 gets +0.0's
// code and every NaN one code above +Inf's; no number gets nullCode.
func floatCode(f float64) uint64 {
	b := sqltypes.FloatKeyBits(f)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

func codeFloat(c uint64) float64 {
	if c&signBit != 0 {
		return math.Float64frombits(c &^ signBit)
	}
	return math.Float64frombits(^c)
}

// keyCol is one key expression evaluated over every input row.
type keyCol struct {
	kind   keyKind
	codes  []uint64  // keyInt, keyTime, keyDict, keyFloat without NaN
	dict   []string  // keyDict: the code space, code c standing for dict[c-1]
	floats []float64 // keyFloat holding NaN
	strs   []string
	vals   []sqltypes.Value
	null   []bool // uncoded kinds: nil when no row is NULL
	// ordered: cmp is a strict weak order whose ties are exactly the equal
	// keys — every coded column, and strs. Only then may a sort keep a
	// bounded heap and group find equal keys by comparing neighbours. NaN
	// (which SortCompare ties with everything) and mixed columns (whose
	// coercing comparisons are not transitive) take the full sort, whose
	// outcome is then the sort algorithm's but the same at every DOP, and a
	// keyTable, which never compares for order.
	ordered bool
}

// keySet is the key columns of one operator input; desc is nil when every
// key ascends.
type keySet struct {
	cols []keyCol
	desc []bool
}

// keyTask is what one build task met in one key column: the value types and
// the EncDict vectors it gathered strings from. Until the column has its code
// space, a dictionary row's code is provisional: the index of its vector in
// dicts shifted left 16, or'ed with its code there, plus one.
type keyTask struct {
	seen  uint32
	dicts []*storage.Vector
	index map[*storage.Vector]int // dicts inverted
}

// dict is the index of v among the vectors the task met, v added when new.
func (kt *keyTask) dict(v *storage.Vector) int {
	d, ok := kt.index[v]
	if !ok {
		if kt.index == nil {
			kt.index = make(map[*storage.Vector]int)
		}
		d = len(kt.dicts)
		kt.index[v] = d
		kt.dicts = append(kt.dicts, v)
	}
	return d
}

// buildKeys evaluates fns over in's rows, one morsel-parallel pass, into typed
// key columns. A task writes each value into the array of the value's own
// runtime type (arrays appear on first use) and reports the types it met; if
// a column met more than one, a second pass keeps its Values, and their key
// encodings, instead. cols[j] >= 0 (cols may be shorter than fns) says key j
// is the bare input column cols[j]: with vectorized execution on, such a key
// is not evaluated but gathered from the typed vectors of the segments behind
// its source, or read from the cell of a computed source — into the same key
// column fns[j] would build, but that strings it reads from dictionaries are
// coded in their merged code space.
func buildKeys(ctx *ExecContext, n Node, in *relation, env *Env, fns []exprFn, cols []int) (*keySet, error) {
	rows := in.len()
	ks := &keySet{cols: make([]keyCol, len(fns))}
	builds := make([]keyColBuild, len(fns))
	for j := range builds {
		builds[j].col, builds[j].n = &ks.cols[j], rows
	}
	bare := make([]bool, len(fns))
	evaluated := false
	for j := range fns {
		bare[j] = j < len(cols) && cols[j] >= 0 && VectorizedEnabled()
		evaluated = evaluated || !bare[j]
	}
	tasks := morselCount(rows)
	// met[t][j]: what task t met in column j.
	met := make([][]keyTask, tasks)
	// pass builds every key of every row; the first pass puts the values
	// into typed arrays, the second (fallback) keeps those of mixed columns.
	pass := func(fallback bool) error {
		_, err := parallelRun(ctx, n, rows, tasks, func(t int) error {
			lo, hi := morselBounds(t, rows)
			kt := make([]keyTask, len(fns))
			for j := range fns {
				if !bare[j] {
					continue
				}
				src := in.column(cols[j])
				if !fallback {
					builds[j].gather(&src, lo, hi, &kt[j])
				} else if c := &ks.cols[j]; c.vals != nil {
					for i := lo; i < hi; i++ {
						v := src.value(i)
						c.vals[i], c.strs[i] = v, v.Key()
					}
				}
			}
			if evaluated {
				ev := &Env{cols: in.cols, outer: env}
				rd := in.reader()
				for i := lo; i < hi; i++ {
					ev.row = rd.row(i)
					for j, fn := range fns {
						if bare[j] {
							continue
						}
						v, err := fn(ctx, ev)
						if err != nil {
							return err
						}
						if !fallback {
							builds[j].put(i, v, &kt[j])
						} else if c := &ks.cols[j]; c.vals != nil {
							c.vals[i], c.strs[i] = v, v.Key()
						}
					}
				}
			}
			if !fallback {
				met[t] = kt
			}
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
		for t := range met {
			seen |= met[t][j].seen
		}
		switch types := seen & 0xff; {
		case types == 0: // all NULL: every code is NULL's
			*c = keyCol{kind: keyInt, codes: make([]uint64, rows), ordered: true}
		case bits.OnesCount32(types) == 1 && types != 1<<keyValue, types == 1<<keyDict|1<<keyString:
			if err := builds[j].finish(ctx, n, seen, met, j); err != nil {
				return nil, err
			}
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
	once [3]sync.Once // codes, strs, null
}

func (b *keyColBuild) allocCodes() { b.col.codes = make([]uint64, b.n) }
func (b *keyColBuild) allocStrs()  { b.col.strs = make([]string, b.n) }
func (b *keyColBuild) allocNull()  { b.col.null = make([]bool, b.n) }

// put stores the key of row i, v, by its runtime type.
func (b *keyColBuild) put(i int, v sqltypes.Value, kt *keyTask) {
	if v.IsNull() {
		b.putNull(i, kt)
		return
	}
	switch v.Type() {
	case sqltypes.Int:
		b.putInt(i, v.Int(), kt)
	case sqltypes.Float:
		b.putFloat(i, v.Float(), kt)
	case sqltypes.String:
		b.putStr(i, v.Str(), kt)
	case sqltypes.DateTime:
		// One beyond the nanosecond range makes the column a keyValue one.
		ns, ok := v.UnixNano()
		if !ok {
			kt.seen |= 1 << keyValue
			return
		}
		b.putCode(i, intCode(ns), keyTime, kt)
	default:
		kt.seen |= 1 << keyValue
	}
}

// gather stores the keys of rows lo..hi-1 from column src, a run of rows of
// one vector at a time: a value an Int, Float, String, dictionary or DATETIME
// vector holds is stored from its array; any other (a BIT, an EncValues
// vector, a computed source's row) goes through put from its cell.
func (b *keyColBuild) gather(src *colSrc, lo, hi int, kt *keyTask) {
	for i := lo; i < hi; {
		v, base, n := src.run(i, hi)
		if v == nil {
			b.put(i, src.cell(src.row(i)), kt)
			i++
			continue
		}
		var d uint64 // the provisional code of the run's dictionary, shifted
		if v.Enc == storage.EncDict {
			d = uint64(kt.dict(v)) << 16
		}
		for end := i + n; i < end; i++ {
			switch o := src.row(i) - base; {
			case v.IsNull(o):
				b.putNull(i, kt)
			case v.Enc == storage.EncInt:
				b.putInt(i, v.Ints[o], kt)
			case v.Enc == storage.EncFloat:
				b.putFloat(i, v.Floats[o], kt)
			case v.Enc == storage.EncString:
				b.putStr(i, v.Strs[o], kt)
			case v.Enc == storage.EncDict:
				b.putCode(i, d|uint64(v.Codes[o])+1, keyDict, kt)
			case v.Enc == storage.EncTime:
				b.putCode(i, intCode(v.Times[o]), keyTime, kt)
			default:
				b.put(i, v.Value(o), kt)
			}
		}
	}
}

func (b *keyColBuild) putNull(i int, kt *keyTask) {
	b.once[2].Do(b.allocNull)
	b.col.null[i] = true
	kt.seen |= seenNull
}

// putCode stores the code of row i, a value of kind k.
func (b *keyColBuild) putCode(i int, code uint64, k keyKind, kt *keyTask) {
	b.once[0].Do(b.allocCodes)
	b.col.codes[i] = code
	kt.seen |= 1 << k
}

// putInt stores an INT. math.MinInt64, whose code would be NULL's, makes the
// column a keyValue one.
func (b *keyColBuild) putInt(i int, x int64, kt *keyTask) {
	if x == math.MinInt64 {
		kt.seen |= 1 << keyValue
		return
	}
	b.putCode(i, intCode(x), keyInt, kt)
}

func (b *keyColBuild) putFloat(i int, f float64, kt *keyTask) {
	if f != f {
		kt.seen |= seenNaN
	}
	b.putCode(i, floatCode(f), keyFloat, kt)
}

func (b *keyColBuild) putStr(i int, s string, kt *keyTask) {
	b.once[1].Do(b.allocStrs)
	b.col.strs[i] = s
	kt.seen |= 1 << keyString
}

// finish makes column j of one type (or of strings, some from dictionaries)
// from its first pass: a dictionary column gets its code space, a column of
// strings from dictionaries and from elsewhere all its strings, a FLOAT
// column holding NaN its numbers; a coded column drops its NULL mask, which
// its codes carry.
func (b *keyColBuild) finish(ctx *ExecContext, n Node, seen uint32, met [][]keyTask, j int) error {
	c := b.col
	c.kind, c.ordered = keyKind(bits.TrailingZeros32(seen&0xff)), seen&seenNaN == 0
	switch {
	case seen&(1<<keyDict|1<<keyString) == 1<<keyDict|1<<keyString:
		c.kind = keyString
		b.once[1].Do(b.allocStrs)
		err := eachDictRow(ctx, n, c.codes, func(t, i, d, o int) { c.strs[i] = met[t][j].dicts[d].Dict[o] })
		c.codes = nil
		return err
	case c.kind == keyDict:
		c.null = nil
		space, recode := codeSpace(met, j)
		c.dict = space
		if recode == nil {
			return nil
		}
		return eachDictRow(ctx, n, c.codes, func(t, i, d, o int) { c.codes[i] = recode[t][d][o] })
	case c.kind == keyFloat && !c.ordered:
		c.floats = make([]float64, len(c.codes))
		for i, x := range c.codes {
			c.floats[i] = codeFloat(x)
		}
		c.codes = nil
	case c.kind != keyString:
		c.null = nil
	}
	return nil
}

// eachDictRow calls f for every row i whose provisional code says it is
// entry o of vector d of the vectors task t met, over the build's morsels
// in parallel.
func eachDictRow(ctx *ExecContext, n Node, codes []uint64, f func(t, i, d, o int)) error {
	rows := len(codes)
	_, err := parallelRun(ctx, n, rows, morselCount(rows), func(t int) error {
		lo, hi := morselBounds(t, rows)
		for i := lo; i < hi; i++ {
			if c := codes[i]; c != nullCode {
				f(t, i, int((c-1)>>16), int((c-1)&0xffff))
			}
		}
		return nil
	})
	return err
}

// codeSpace merges the sorted dictionaries of the vectors column j's tasks
// met into one sorted code space, and gives, by task and by the index of the
// vector in the task's dicts, the code of each of the vector's entries.
// recode is nil when one vector was met: its dictionary is the space, and the
// provisional codes are the codes. The cost is in the dictionaries' entries,
// not in the rows.
func codeSpace(met [][]keyTask, j int) (space []string, recode [][][]uint64) {
	var dicts [][]string
	at := make(map[*storage.Vector]int)
	for t := range met {
		for _, v := range met[t][j].dicts {
			if _, ok := at[v]; !ok {
				at[v] = len(dicts)
				dicts = append(dicts, v.Dict)
			}
		}
	}
	if len(dicts) == 1 {
		return dicts[0], nil
	}
	space = slices.Concat(dicts...)
	slices.Sort(space)
	space = slices.Compact(space)
	codes := make([][]uint64, len(dicts))
	for d, dict := range dicts {
		codes[d] = make([]uint64, len(dict))
		for o, s := range dict {
			k, _ := slices.BinarySearch(space, s)
			codes[d][o] = uint64(k + 1)
		}
	}
	recode = make([][][]uint64, len(met))
	for t := range met {
		for _, v := range met[t][j].dicts {
			recode[t] = append(recode[t], codes[at[v]])
		}
	}
	return space, recode
}

// cmp orders rows a and b on this column exactly as SortCompare orders the
// values they were built from.
func (c *keyCol) cmp(a, b int) int {
	if c.codes != nil {
		return cmp.Compare(c.codes[a], c.codes[b])
	}
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

// rowOrder is less as a comparison, for an ordered key set, chosen once: over
// coded columns each column is one integer comparison, DESC an inversion of
// the codes' bits (NULL's code then sorts last, as a negated SortCompare
// puts it).
func (ks *keySet) rowOrder() func(a, b int32) int {
	if !ks.coded() {
		return func(a, b int32) int {
			if c := ks.cmp(int(a), int(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}
	}
	type coded struct {
		codes []uint64
		flip  uint64
	}
	cs := make([]coded, len(ks.cols))
	for j := range ks.cols {
		cs[j] = coded{ks.cols[j].codes, ks.flip(j)}
	}
	return func(a, b int32) int {
		for _, c := range cs {
			if x, y := c.codes[a]^c.flip, c.codes[b]^c.flip; x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return cmp.Compare(a, b)
	}
}

// flip is what DESC xors into the codes of column j: every bit, which
// reverses their order.
func (ks *keySet) flip(j int) uint64 {
	if ks.desc != nil && ks.desc[j] {
		return ^uint64(0)
	}
	return 0
}

// sortRows orders rows 0..n-1 by the key set and returns the first k of them
// (k <= n): contiguous chunks are sorted in parallel, then merged pairwise.
// An ordered set sorts by rowOrder, a total order, so the result is the one
// a stable sort of the whole input gives, at every chunk count: a chunk
// longer than k keeps a heap of its k smallest, and a whole chunk of a coded
// set is radix-sorted. Any other set keeps the sort it has always had — less
// under sort.Slice, no heap — whose outcome is that algorithm's.
func (ks *keySet) sortRows(ctx *ExecContext, op Node, n, k int) ([]int32, error) {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	var byCode func(a, b int32) int
	less := func(a, b int32) bool { return ks.less(int(a), int(b)) }
	if ks.ordered() {
		byCode = ks.rowOrder()
		less = func(a, b int32) bool { return byCode(a, b) < 0 }
	}
	chunks := min(morselCount(n), 16)
	parts := make([][]int32, chunks)
	if _, err := parallelRun(ctx, op, n, chunks, func(t int) error {
		part := order[t*n/chunks : (t+1)*n/chunks]
		switch {
		case byCode == nil:
			sort.Slice(part, func(a, b int) bool { return less(part[a], part[b]) })
		case k < len(part):
			part = smallest(part, k, less)
			slices.SortFunc(part, byCode)
		case ks.coded():
			ks.radixSort(part)
		default:
			slices.SortFunc(part, byCode)
		}
		parts[t] = part
		return nil
	}); err != nil {
		return nil, err
	}
	return mergeSortedChunks(parts, k, less), nil
}

// coded reports whether every column is coded.
func (ks *keySet) coded() bool {
	for j := range ks.cols {
		if ks.cols[j].codes == nil {
			return false
		}
	}
	return true
}

// radixSort orders rows, which ascend, by the codes of a coded key set: a
// stable LSD radix sort over the codes' bytes, last key column first, DESC an
// inversion of the bits, skipping every byte in which the rows' codes all
// agree. Stability keeps tied rows ascending, so the order is rowOrder's.
func (ks *keySet) radixSort(rows []int32) {
	src, dst := rows, make([]int32, len(rows))
	for j := len(ks.cols) - 1; j >= 0; j-- {
		codes, flip := ks.cols[j].codes, ks.flip(j)
		or, and := uint64(0), ^uint64(0)
		for _, r := range src {
			or, and = or|codes[r], and&codes[r]
		}
		for shift := 0; shift < 64; shift += 8 {
			if (or^and)>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for _, r := range src {
				at[(codes[r]^flip)>>shift&0xff]++
			}
			sum := 0
			for b, c := range at {
				at[b], sum = sum, sum+c
			}
			for _, r := range src {
				d := (codes[r] ^ flip) >> shift & 0xff
				dst[at[d]] = r
				at[d]++
			}
			src, dst = dst, src
		}
	}
	copy(rows, src)
}

// sortGroups returns the groups 0..len(first)-1 in the order of their keys,
// the keys of their first rows (first ascends): ties keep first-seen order.
// An ordered set sorts by rowOrder; any other keeps its stable sort by cmp.
func (ks *keySet) sortGroups(first []int32) []int32 {
	groups := make([]int32, len(first))
	for g := range groups {
		groups[g] = int32(g)
	}
	if ks.ordered() {
		byCode := ks.rowOrder()
		slices.SortFunc(groups, func(g, h int32) int { return byCode(first[g], first[h]) })
		return groups
	}
	sort.SliceStable(groups, func(i, j int) bool {
		return ks.cmp(int(first[groups[i]]), int(first[groups[j]])) < 0
	})
	return groups
}

// smallest rearranges part so that its first k entries are its k smallest
// under less (in heap order) and returns them: a max-heap of k candidates
// that each later entry enters only by beating the root.
func smallest[T any](part []T, k int, less func(a, b T) bool) []T {
	if k >= len(part) {
		return part
	}
	heap := part[:k]
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && less(heap[c], heap[c+1]) {
				c++
			}
			if !less(heap[i], heap[c]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	if k > 0 {
		for _, x := range part[k:] {
			if less(x, heap[0]) {
				heap[0] = x
				down(0)
			}
		}
	}
	return heap
}

// mergeSortedChunks merges the sorted index lists in parts into one of at
// most limit entries, pairwise and level by level, where less is a total
// strict order. The merge is deterministic for any chunk count because less
// never reports equality for distinct indices.
func mergeSortedChunks[T any](parts [][]T, limit int, less func(a, b T) bool) []T {
	if len(parts) == 0 {
		return nil
	}
	for len(parts) > 1 {
		var next [][]T
		for i := 0; i+1 < len(parts); i += 2 {
			a, b := parts[i], parts[i+1]
			n := min(len(a)+len(b), limit)
			out := make([]T, 0, n)
			for len(out) < n {
				if len(b) == 0 || (len(a) > 0 && !less(b[0], a[0])) {
					out, a = append(out, a[0]), a[1:]
				} else {
					out, b = append(out, b[0]), b[1:]
				}
			}
			next = append(next, out)
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	if limit < len(parts[0]) {
		return parts[0][:limit]
	}
	return parts[0]
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
		total += int64(len(c.null)) + 8*int64(len(c.codes)+len(c.floats)) + 16*int64(len(c.strs)+len(c.dict))
		for _, v := range c.vals {
			total += int64(v.SizeBytes())
		}
	}
	return total
}

func (c *keyCol) isNull(i int) bool {
	if c.codes != nil {
		return c.codes[i] == nullCode
	}
	return c.null != nil && c.null[i]
}

// anyNull reports whether any key of row i is NULL (such a row never joins).
func (ks *keySet) anyNull(i int) bool {
	for j := range ks.cols {
		if ks.cols[j].isNull(i) {
			return true
		}
	}
	return false
}

// equal reports whether rows i and j carry equal keys in this column.
func (c *keyCol) equal(i, j int) bool {
	if c.codes != nil {
		return c.codes[i] == c.codes[j]
	}
	if in, jn := c.isNull(i), c.isNull(j); in || jn {
		return in == jn
	}
	if c.kind == keyFloat {
		return floatKeysEqual(c.floats[i], c.floats[j])
	}
	return c.strs[i] == c.strs[j]
}

// equal reports whether rows i and j carry equal keys.
func (ks *keySet) equal(i, j int) bool {
	for c := range ks.cols {
		if !ks.cols[c].equal(i, j) {
			return false
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

// hash is row i's hash in this column: consistent with equal, and with
// probeKey.hash for a value that matches the row. A coded column hashes its
// code, but an INT hashes as the FLOAT of its number would, so that a FLOAT
// can probe it.
func (c *keyCol) hash(i int) uint64 {
	switch {
	case c.kind == keyInt:
		return floatCode(float64(codeInt(c.codes[i])))
	case c.codes != nil:
		return c.codes[i]
	case c.isNull(i):
		return nullKeyHash
	case c.kind == keyFloat:
		return floatCode(c.floats[i])
	}
	return maphash.String(keySeed, c.strs[i])
}

// hash is row i's hash over the key columns.
func (ks *keySet) hash(i int) uint64 {
	var h uint64
	for j := range ks.cols {
		h = mixHash(h, ks.cols[j].hash(i))
	}
	return h
}

// probeKey is one non-NULL value brought to the form the column it probes
// compares by: a hash join probes its typed build columns with the values of
// the other side, a semi-probe with the outer row's.
type probeKey struct {
	code    uint64 // a coded column: the value's code
	byFloat bool   // an INT column probed with a FLOAT: f meets each number
	f       float64
	s       string
	hash    uint64
}

// probe prepares v as a key of this column. ok is false when no key of the
// column can equal v: the two are of different type classes, which never
// share a Value.Key (a caller whose equality coerces across classes, as `=`
// does between a string and a number, must then compare row by row).
func (c *keyCol) probe(v sqltypes.Value) (p probeKey, ok bool) {
	t := v.Type()
	number := t == sqltypes.Int || t == sqltypes.Bool || t == sqltypes.Float
	switch {
	case c.kind == keyValue:
		p.s = v.Key()
		p.hash = maphash.String(keySeed, p.s)
	case c.kind == keyString && t == sqltypes.String:
		p.s = v.Str()
		p.hash = maphash.String(keySeed, p.s)
	case c.kind == keyDict && t == sqltypes.String:
		// A string outside the code space keeps NULL's code, which no row
		// of a probed table carries (newRowTable leaves NULL keys out).
		if k, found := slices.BinarySearch(c.dict, v.Str()); found {
			p.code = uint64(k + 1)
		}
		p.hash = p.code
	case c.kind == keyTime && t == sqltypes.DateTime:
		ns, inRange := v.UnixNano()
		if !inRange {
			return p, false
		}
		p.code = intCode(ns)
		p.hash = p.code
	case c.kind == keyInt && t == sqltypes.Float:
		p.byFloat, p.f = true, v.Float()
		p.hash = floatCode(p.f)
	case c.kind == keyInt && number:
		p.code = intCode(v.Int())
		p.hash = floatCode(float64(v.Int()))
	case c.kind == keyFloat && number:
		p.f = v.Float()
		p.code = floatCode(p.f)
		p.hash = p.code
	default:
		return p, false
	}
	return p, true
}

// matches reports whether the non-NULL key at row equals p. An Int meets an
// Int exactly and a Float as float64, which is how Compare decides `=`.
func (c *keyCol) matches(row int, p *probeKey) bool {
	switch {
	case p.byFloat:
		return float64(codeInt(c.codes[row])) == p.f
	case c.codes != nil:
		return c.codes[row] == p.code
	case c.kind == keyFloat:
		return floatKeysEqual(c.floats[row], p.f)
	}
	return c.strs[row] == p.s
}

// keyTable assigns dense ids to the distinct keys of one key set, in
// first-seen order. A lone coded column whose codes span few values indexes
// the ids by code; any other key set hashes them into an open-addressing
// table over its columns.
type keyTable struct {
	keys *keySet
	// byCode[1+code-lo] is the id+1 of a code, byCode[0] NULL's; nil when
	// the table hashes.
	byCode []int32
	lo     uint64
	slots  []int32  // id+1; 0 = empty
	hashes []uint64 // by id
	first  []int32  // by id: the first row that carried the key
	// next chains the rows of one key in ascending row order from first[id]
	// (-1 ends the chain); only tables built by newRowTable have it.
	next []int32
}

// newKeyTable is an empty table for the keys of n rows. It indexes by code
// when the keys are one coded column whose codes span at most n+1024 values
// (a dictionary column's nearly always do) — and, for an INT column, hold
// only numbers float64 keeps exact, so that a FLOAT probe has one code to
// look up.
func newKeyTable(keys *keySet, n int) *keyTable {
	t := &keyTable{keys: keys}
	if c := keys.cols; len(c) == 1 && c[0].codes != nil {
		lo, span := c[0].codeSpan()
		exact := c[0].kind != keyInt || span == 0 ||
			(codeInt(lo) >= -1<<53 && codeInt(lo+uint64(span-1)) <= 1<<53)
		if span <= n+1024 && exact {
			t.lo, t.byCode = lo, make([]int32, span+1)
			return t
		}
	}
	t.slots = make([]int32, 64)
	return t
}

// newRowTable indexes rows 0..n-1 of keys, skipping rows with a NULL key:
// the build side of a join.
func newRowTable(keys *keySet, n int) *keyTable {
	t := newKeyTable(keys, n)
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

// assign returns the id of the key at row i, adding it when new.
func (t *keyTable) assign(i int) int32 {
	if t.byCode != nil {
		k := 0
		if x := t.keys.cols[0].codes[i]; x != nullCode {
			k = int(x-t.lo) + 1
		}
		if t.byCode[k] == 0 {
			t.first = append(t.first, int32(i))
			t.byCode[k] = int32(len(t.first))
		}
		return t.byCode[k] - 1
	}
	h := t.keys.hash(i)
	mask := uint64(len(t.slots) - 1)
	for p := h & mask; t.slots[p] != 0; p = (p + 1) & mask {
		if id := t.slots[p] - 1; t.hashes[id] == h && t.keys.equal(i, int(t.first[id])) {
			return id
		}
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
	if t.byCode != nil {
		return t.probeCode(&scratch[0]), true
	}
	mask := uint64(len(t.slots) - 1)
next:
	for p := h & mask; t.slots[p] != 0; p = (p + 1) & mask {
		id := t.slots[p] - 1
		if t.hashes[id] != h {
			continue
		}
		first := int(t.first[id])
		for j := range scratch {
			if !t.keys.cols[j].matches(first, &scratch[j]) {
				continue next
			}
		}
		return int32(first), true
	}
	return -1, true
}

// probeCode looks p up in a table indexed by code. A FLOAT probing an INT
// column has the code of the one integer it equals, if any.
func (t *keyTable) probeCode(p *probeKey) int32 {
	code := p.code
	if p.byFloat {
		if p.f != math.Trunc(p.f) || math.Abs(p.f) > 1<<53 {
			return -1
		}
		code = intCode(int64(p.f))
	}
	if code == nullCode || code < t.lo || code-t.lo >= uint64(len(t.byCode)-1) {
		return -1
	}
	if id := t.byCode[code-t.lo+1] - 1; id >= 0 {
		return t.first[id]
	}
	return -1
}

// bytes is the table's own footprint (the key columns are charged apart).
func (t *keyTable) bytes() int64 {
	return 4*int64(len(t.byCode)+len(t.slots)+len(t.next)) + 12*int64(len(t.first))
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
// every row goes through a keyTable. Both decide equality as equal does, so
// the groups are the same either way.
func (ks *keySet) group(n int, seq []int32, sorted bool) grouping {
	row := func(i int) int {
		if seq != nil {
			return int(seq[i])
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
	g.table = newKeyTable(ks, n)
	for i := range g.ids {
		g.ids[i] = g.table.assign(row(i))
	}
	g.first = g.table.first
	return g
}

// codeSpan is the least non-NULL code of a coded column and the count of
// codes from it to the greatest (0 when every row is NULL).
func (c *keyCol) codeSpan() (lo uint64, span int) {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, x := range c.codes {
		if x != nullCode {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if lo > hi {
		return 1, 0
	}
	if hi-lo >= math.MaxInt32 {
		return lo, math.MaxInt32
	}
	return lo, int(hi-lo) + 1
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

// keyFns is the key functions, bare input columns (-1: computed) and
// directions of sort keys, as buildKeys takes them.
func keyFns(keys []sortKey) (fns []exprFn, cols []int, desc []bool) {
	fns, cols, desc = make([]exprFn, len(keys)), make([]int, len(keys)), make([]bool, len(keys))
	for j, k := range keys {
		fns[j], cols[j], desc[j] = k.fn, -1, k.desc
		if k.fn == nil {
			fns[j], cols[j] = colFn(k.idx), k.idx
		}
	}
	return fns, cols, desc
}
