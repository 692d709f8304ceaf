package qcache

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Cache keys fence every dimension that can change what a query returns:
// the querying user (name resolution and row visibility are per-user), the
// canonical SQL text, the row-limit setting (a limit abort is part of the
// observable outcome), and the version vector of the transitive dataset
// dependency closure. The encoding is injective — every part is
// length-prefixed — so two distinct (user, sql, maxRows, versions) tuples
// can never produce the same key string, no matter what characters the
// parts contain. DecodeKey is the exact inverse; the FuzzCacheKey target
// pins the round-trip down.

// DatasetVersion pairs a dataset full name with its monotonic content
// version (see catalog.DatasetVersion).
type DatasetVersion struct {
	Name    string
	Version uint64
}

// VersionVector is the version of every dataset in a query's transitive
// dependency closure — the ownership-chain semantics of §3.4 applied to
// caching: a result is valid only while *all* upstream datasets are
// unchanged.
type VersionVector []DatasetVersion

// sorted returns a name-ordered copy so the key encoding is canonical
// regardless of closure-walk order.
func (vv VersionVector) sorted() VersionVector {
	out := append(VersionVector(nil), vv...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResultKey keys the result cache. It carries the full canonical SQL, so two
// different statements can never share an entry.
func ResultKey(user, canonicalSQL string, maxRows int, vv VersionVector) string {
	var b strings.Builder
	writePart(&b, user)
	writePart(&b, strconv.Itoa(maxRows))
	writePart(&b, canonicalSQL)
	for _, d := range vv.sorted() {
		writePart(&b, d.Name)
		writePart(&b, strconv.FormatUint(d.Version, 10))
	}
	return b.String()
}

// writePart appends one length-prefixed part ("<len>:<bytes>").
func writePart(b *strings.Builder, p string) {
	b.WriteString(strconv.Itoa(len(p)))
	b.WriteByte(':')
	b.WriteString(p)
}

// DecodeKey inverts ResultKey. Version vectors come back name-sorted (the
// canonical order keys are built in).
func DecodeKey(key string) (user, sql string, maxRows int, vv VersionVector, err error) {
	parts, perr := splitParts(key)
	if perr != nil {
		return "", "", 0, nil, perr
	}
	if len(parts) < 3 || (len(parts)-3)%2 != 0 {
		return "", "", 0, nil, fmt.Errorf("qcache: malformed key: %d parts", len(parts))
	}
	user = parts[0]
	maxRows, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", "", 0, nil, fmt.Errorf("qcache: malformed maxRows part: %w", err)
	}
	sql = parts[2]
	for i := 3; i < len(parts); i += 2 {
		v, verr := strconv.ParseUint(parts[i+1], 10, 64)
		if verr != nil {
			return "", "", 0, nil, fmt.Errorf("qcache: malformed version part: %w", verr)
		}
		vv = append(vv, DatasetVersion{Name: parts[i], Version: v})
	}
	return user, sql, maxRows, vv, nil
}

func splitParts(s string) ([]string, error) {
	var out []string
	for len(s) > 0 {
		i := strings.IndexByte(s, ':')
		if i <= 0 {
			return nil, fmt.Errorf("qcache: malformed key: missing length prefix")
		}
		n, err := strconv.Atoi(s[:i])
		if err != nil || n < 0 || i+1+n > len(s) {
			return nil, fmt.Errorf("qcache: malformed key: bad length %q", s[:i])
		}
		out = append(out, s[i+1:i+1+n])
		s = s[i+1+n:]
	}
	return out, nil
}
