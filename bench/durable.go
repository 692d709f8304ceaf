package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// crashAndRecover kills the server without warning and starts a new one on
// the same data directory. It returns the time from the new process's start
// until /api/health answers: what a user waits after a crash.
func (in *instance) crashAndRecover(ctx context.Context, bin, workload string) (time.Duration, error) {
	in.client.close()
	in.proc.kill()
	var flags []string
	if in.dataDir != "" {
		flags = durableFlags(in.dataDir)
	}
	start := time.Now()
	proc, err := startServer(ctx, bin, serverLogPath(workload), flags...)
	if err != nil {
		return 0, fmt.Errorf("restart after kill: %w", err)
	}
	recovery := time.Since(start)
	in.proc = proc
	in.client = newRESTClient(proc.base)
	return recovery, nil
}

// acknowledged replays the writes the server acknowledged and returns the
// row count every dataset must therefore hold, by "owner.name". streams are
// per-client op lists in the order they were sent.
func acknowledged(w *workload, streams [][]op, results map[*op]*sample) map[string]int {
	rows := map[string]int{}
	for _, d := range w.Setup.Datasets {
		rows[d.User+"."+d.Name] = d.Rows
	}
	for _, stream := range streams {
		for i := range stream {
			o := &stream[i]
			if s := results[o]; s == nil || s.err != nil {
				continue
			}
			switch o.Kind {
			case opUpload:
				rows[o.User+"."+o.Name] = o.Rows
			case opAppend:
				rows[o.User+"."+o.Target] += rows[o.User+"."+o.Name]
			case opMaterialize:
				rows[o.User+"."+o.Name] = rows[o.User+"."+o.Target]
			}
		}
	}
	return rows
}

// lostAckedWrites asks a recovered server for every dataset it
// acknowledged and for the row count of every append target, and counts
// what is missing or short. The pipeline workload names its targets t….
func lostAckedWrites(ctx context.Context, c *restClient, want map[string]int) (lost int, first string, err error) {
	users := map[string]bool{}
	for full := range want {
		users[full[:strings.IndexByte(full, '.')]] = true
	}
	have := map[string]bool{}
	for user := range users {
		out, err := c.do(ctx, "GET", "/api/datasets", user, nil, http.StatusOK)
		if err != nil {
			return 0, "", err
		}
		var list []struct {
			FullName string `json:"fullName"`
		}
		if err := json.Unmarshal(out, &list); err != nil {
			return 0, "", fmt.Errorf("dataset list: %w", err)
		}
		for _, d := range list {
			have[d.FullName] = true
		}
	}
	names := make([]string, 0, len(want))
	for full := range want {
		names = append(names, full)
	}
	sort.Strings(names)
	note := func(msg string) {
		lost++
		if first == "" {
			first = msg
		}
	}
	for _, full := range names {
		if !have[full] {
			note(full + " is gone")
			continue
		}
		user, name, _ := strings.Cut(full, ".")
		if !strings.HasPrefix(name, "t") {
			continue
		}
		res, _, err := c.query(ctx, user, fmt.Sprintf("SELECT COUNT(*) AS n FROM [%s]", name))
		if err != nil {
			return 0, "", err
		}
		got := ""
		if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
			got = res.Rows[0][0]
		}
		if got != fmt.Sprint(want[full]) {
			note(fmt.Sprintf("%s holds %s rows, %d were acknowledged", full, got, want[full]))
		}
	}
	return lost, first, nil
}
