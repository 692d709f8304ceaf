package jobs

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// FuzzJobTable drives a table with small retention bounds through a fuzzed
// sequence of create, finish, fail, kill, find and running-list operations,
// two bytes each, and checks after every one that the running index, the
// counters, the retained finished queue and every id's answer agree with a
// model of what was done.
func FuzzJobTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 3, 3, 1, 2, 0, 4, 2, 5, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 1, 39, 1, 39, 1, 39, 3, 1, 2, 0, 4, 7})
	f.Add([]byte{0, 1, 3, 1, 1, 0, 3, 1, 0, 0, 5, 0, 2, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		tbl := &Table{keepJobs: 3, keepBytes: 40}
		users := [2]string{"alice", "bob"}
		type model struct {
			j      *Job
			killed bool // Kill answered nil
			ended  bool
			size   int64
		}
		var issued []*model // issued[n-1] is job q-n
		var ended []*model  // in retire order
		var running []*model
		bg := context.Background()
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, int(data[i+1])
			idOf := func() string { return idPrefix + strconv.Itoa(arg%(len(issued)+2)) }
			end := func(m *model, size int64) {
				m.ended, m.size = true, size
				ended = append(ended, m)
				for k, r := range running {
					if r == m {
						running = append(running[:k], running[k+1:]...)
						break
					}
				}
			}
			switch op {
			case 0:
				issued = append(issued, &model{j: tbl.Create(bg, users[arg%2], "SELECT 1", 1, "")})
				running = append(running, issued[len(issued)-1])
			case 1, 2:
				if len(running) == 0 {
					continue
				}
				m := running[arg%len(running)]
				if op == 1 {
					cells := arg % 40
					m.j.Finish(oneCell(strings.Repeat("x", cells)))
					// ["v"] and [["x…"]]; a killed job fails instead and keeps nothing.
					size := int64(len(`["v"]`) + len(`[[""]]`) + cells)
					if m.killed {
						size = 0
					}
					end(m, size)
				} else {
					m.j.Fail(errors.New("boom"))
					end(m, 0)
				}
			case 3:
				id := idOf()
				err := tbl.Kill(id)
				n := seqOf(id)
				if n >= 1 && n <= len(issued) && !issued[n-1].ended {
					if err != nil {
						t.Fatalf("kill running %s: %v", id, err)
					}
					issued[n-1].killed = true
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("kill %s that is not running: %v, want ErrNotFound", id, err)
				}
			case 4:
				id := idOf()
				if j, jerr := tbl.Find(id, users[arg%2]); (j == nil) == (jerr == nil) {
					t.Fatalf("Find(%s) = %v, %v: want exactly one of a job and an error", id, j, jerr)
				}
			case 5:
				list := tbl.Running()
				for k := 1; k < len(list); k++ {
					if seqOf(list[k-1].ID) > seqOf(list[k].ID) {
						t.Fatalf("running listing out of order: %s before %s", list[k-1].ID, list[k].ID)
					}
				}
			}

			// The running index, the listing and the counters agree.
			st := tbl.Stats()
			if got := len(tbl.Running()); got != st.InFlight || got != len(running) {
				t.Fatalf("op %d: %d listed, Stats().InFlight = %d, model %d running", i/2, got, st.InFlight, len(running))
			}
			if st.Started != int64(len(issued)) || st.Finished != int64(len(ended)) {
				t.Fatalf("op %d: stats %+v, model %d started / %d ended", i/2, st, len(issued), len(ended))
			}
			// The retained finished jobs are the newest ones, within both
			// bounds, and the newest is always kept.
			tbl.mu.Lock()
			kept, bytes := len(tbl.finished), tbl.bytes
			tbl.mu.Unlock()
			if kept > tbl.keepJobs || bytes > tbl.keepBytes && kept > 1 {
				t.Fatalf("op %d: %d finished jobs / %d bytes retained, bounds %d / %d", i/2, kept, bytes, tbl.keepJobs, tbl.keepBytes)
			}
			if len(ended) > 0 && kept == 0 {
				t.Fatalf("op %d: the newest finished job was dropped", i/2)
			}
			var sum int64
			retained := map[*Job]bool{}
			for _, m := range ended[len(ended)-kept:] {
				sum += m.size
				retained[m.j] = true
			}
			if sum != bytes {
				t.Fatalf("op %d: retained bytes %d, model %d", i/2, bytes, sum)
			}
			// Every id answers exactly one of 200, 403, 404 or 410.
			for n := 0; n <= len(issued)+1; n++ {
				id := idPrefix + strconv.Itoa(n)
				want := http.StatusNotFound
				if n >= 1 && n <= len(issued) {
					if m := issued[n-1]; !m.ended || retained[m.j] {
						want = http.StatusOK
					} else {
						want = http.StatusGone
					}
				}
				for _, u := range users {
					j, jerr := tbl.Find(id, u)
					got := http.StatusOK
					if jerr != nil {
						got = jerr.Status
					} else if j.ID != id {
						t.Fatalf("Find(%s) returned %s", id, j.ID)
					}
					w := want
					if w == http.StatusOK && issued[n-1].j.User != u {
						w = http.StatusForbidden
					}
					if got != w {
						t.Fatalf("op %d: Find(%s, %s) answered %d, want %d", i/2, id, u, got, w)
					}
				}
			}
		}
		for _, m := range running {
			m.j.Fail(errors.New("fuzz over"))
		}
	})
}
