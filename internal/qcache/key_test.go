package qcache

import (
	"testing"

	"sqlshare/internal/sqlparser"
)

func TestKeyRoundTrip(t *testing.T) {
	vv := VersionVector{
		{Name: "bob.rain", Version: 7},
		{Name: "alice.water", Version: 3},
	}
	key := ResultKey("alice", "SELECT * FROM water", 500, vv)
	user, sql, maxRows, got, err := DecodeKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if user != "alice" || sql != "SELECT * FROM water" || maxRows != 500 {
		t.Fatalf("decoded (%q, %q, %d)", user, sql, maxRows)
	}
	// Vectors come back name-sorted regardless of input order.
	if len(got) != 2 || got[0].Name != "alice.water" || got[0].Version != 3 ||
		got[1].Name != "bob.rain" || got[1].Version != 7 {
		t.Fatalf("decoded vector %v", got)
	}
}

func TestDecodeKeyRejectsMalformed(t *testing.T) {
	vv := VersionVector{{Name: "a.b", Version: 1}}
	good := ResultKey("u", "SELECT 1", 0, vv)
	bad := []string{
		"",                    // empty
		"r" + good,            // junk before the first length prefix
		good[:len(good)-1],    // truncated
		"5:aaaaa",             // too few parts
		"1:u1:03:sql3:a.b",    // odd vector remainder
		"1:u1:x3:sql",         // non-numeric maxRows
		"1:u1:03:sql3:a.b1:x", // non-numeric version
		"9999:u",              // length prefix past end
		"nope",                // no length prefix
	}
	for _, k := range bad {
		if _, _, _, _, err := DecodeKey(k); err == nil {
			t.Errorf("DecodeKey(%q) accepted malformed key", k)
		}
	}
}

// TestNoCollisionsOnSeededCorpus enumerates a grid of distinct
// (user, sql, maxRows, versions) tuples — including pairs engineered to
// collide under naive concatenation, like ("ab","c") vs ("a","bc") — and
// checks every tuple maps to a unique key.
func TestNoCollisionsOnSeededCorpus(t *testing.T) {
	users := []string{"", "a", "ab", "alice", "alice.w", "b:c", "1:x"}
	sqls := []string{
		"SELECT * FROM water",
		"SELECT *  FROM water", // whitespace is significant in result keys
		"SELECT * FROM water ", // trailing space
		"select * from water",
		"3:a.b1:", // looks like an encoded part
		"",
	}
	limits := []int{0, 1, 500}
	vectors := []VersionVector{
		nil,
		{{Name: "alice.water", Version: 1}},
		{{Name: "alice.water", Version: 2}},
		{{Name: "alice.water", Version: 12}}, // vs (1,2) split below
		{{Name: "alice.water", Version: 1}, {Name: "bob.rain", Version: 2}},
		{{Name: "alice.water1", Version: 1}}, // name/version boundary probe
	}
	seen := map[string]string{}
	for _, u := range users {
		for _, s := range sqls {
			for _, l := range limits {
				for vi, vv := range vectors {
					id := u + "\x00" + s + "\x00" + string(rune('0'+l%10)) + "\x00" + string(rune('0'+vi))
					key := ResultKey(u, s, l, vv)
					if prev, dup := seen[key]; dup {
						t.Fatalf("key collision between tuples %q and %q: %q", prev, id, key)
					}
					seen[key] = id
				}
			}
		}
	}
	if len(seen) != len(users)*len(sqls)*len(limits)*len(vectors) {
		t.Fatalf("expected %d unique keys, got %d", len(users)*len(sqls)*len(limits)*len(vectors), len(seen))
	}
}

// TestCanonicalSQLIsAFixpoint pins the canonicalization the catalog feeds
// into ResultKey: re-parsing a parser-printed query and printing it again
// must yield the same text, or equal queries would miss each other's cache
// entries.
func TestCanonicalSQLIsAFixpoint(t *testing.T) {
	for _, raw := range []string{
		"select   station , val from water where val > 1 order by val",
		"SELECT a.station FROM water a JOIN water b ON a.station = b.station",
		"SELECT station, COUNT(*) AS n FROM water GROUP BY station HAVING COUNT(*) > 1",
		"SELECT * FROM (SELECT station FROM water) sub",
		"SELECT station FROM water UNION ALL SELECT station FROM water",
		"SELECT TOP 2 station FROM water ORDER BY val DESC",
	} {
		q, err := sqlparser.Parse(raw)
		if err != nil {
			t.Fatalf("parse %q: %v", raw, err)
		}
		canonical := q.SQL()
		q2, err := sqlparser.Parse(canonical)
		if err != nil {
			t.Fatalf("reparse %q: %v", canonical, err)
		}
		if again := q2.SQL(); again != canonical {
			t.Errorf("canonical SQL not a fixpoint:\n first %q\nsecond %q", canonical, again)
		}
	}
}

// FuzzCacheKey fuzzes the encode/decode round-trip over adversarial SQL
// text, user names and version vectors: DecodeKey(EncodeKey(x)) == x, and
// distinct (user, versions) pairs never share a key.
func FuzzCacheKey(f *testing.F) {
	f.Add("alice", "SELECT * FROM water", 0, "alice.water", uint64(1), uint64(2))
	f.Add("", "", -1, "", uint64(0), uint64(0))
	f.Add("b:c", "3:a.b1:", 42, "x:y", uint64(18446744073709551615), uint64(7))
	f.Add("u\x00v", "SELECT '\xff'", 10, "owner.name", uint64(12), uint64(3))
	f.Fuzz(func(t *testing.T, user, sql string, maxRows int, name string, v1, v2 uint64) {
		vv := VersionVector{
			{Name: name, Version: v1},
			{Name: name + "2", Version: v2},
		}
		key := ResultKey(user, sql, maxRows, vv)
		gotUser, gotSQL, gotRows, gotVV, err := DecodeKey(key)
		if err != nil {
			t.Fatalf("DecodeKey(ResultKey(...)): %v", err)
		}
		if gotUser != user || gotSQL != sql || gotRows != maxRows {
			t.Fatalf("round-trip mismatch: (%q, %q, %d) != (%q, %q, %d)",
				gotUser, gotSQL, gotRows, user, sql, maxRows)
		}
		want := vv.sorted()
		if len(gotVV) != len(want) {
			t.Fatalf("vector length %d != %d", len(gotVV), len(want))
		}
		for i := range want {
			if gotVV[i] != want[i] {
				t.Fatalf("vector[%d] = %v, want %v", i, gotVV[i], want[i])
			}
		}
		// Distinct version vectors (same user/sql) must produce distinct
		// keys — this is the fence.
		bumped := VersionVector{
			{Name: name, Version: v1 + 1},
			{Name: name + "2", Version: v2},
		}
		if ResultKey(user, sql, maxRows, bumped) == key {
			t.Fatal("version bump did not change the key")
		}
		// And distinct users must never share a key.
		if ResultKey(user+"x", sql, maxRows, vv) == key {
			t.Fatal("different users share a key")
		}
	})
}
