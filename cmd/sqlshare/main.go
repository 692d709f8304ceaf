// Command sqlshare is the command-line client for a sqlshare-server,
// speaking the REST protocol of §3.3: staged uploads, asynchronous queries
// with polling, dataset management and sharing.
//
// Usage:
//
//	sqlshare [-server http://localhost:8080] [-user NAME] <command> [args]
//
// Commands:
//
//	create-user <name> <email>     register a user
//	upload <name> <file.csv>       stage and ingest a file as a dataset
//	save <name> <sql>              save a query as a derived dataset
//	query <sql>                    run a query (waits for the result)
//	explain <sql>                  show the extracted JSON plan
//	cache [flush]                  show result-cache stats, or empty it
//	insights [section]             show live workload insights (summary,
//	                               operators, tables, users, slow, sessions,
//	                               usage, recent; default summary)
//	traces                         list recent trace summaries
//	traces <id>                    render one retained span tree
//	ps                             list in-flight queries (id, user, phase,
//	                               progress, memory)
//	kill <id>                      cancel an in-flight query
//	health                         show the deep health report
//	ls                             list visible datasets
//	show <owner> <name>            show dataset metadata and preview
//	publish <owner> <name>         make a dataset public
//	share <owner> <name> <user>    share a dataset with a user
//	append <owner> <name> <src>    append dataset src via UNION rewrite
//	materialize <owner> <name> <as>  snapshot a dataset
//	delete <owner> <name>          delete a dataset
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

type client struct {
	server      string
	user        string
	trace       bool
	spans       bool
	parallelism int
	noCache     bool
}

func main() {
	server := flag.String("server", "http://localhost:8080", "server base URL")
	user := flag.String("user", os.Getenv("SQLSHARE_USER"), "acting user")
	trace := flag.Bool("trace", false, "after `query`, print the per-operator execution trace (estimated vs actual rows, wall time)")
	spans := flag.Bool("spans", false, "after `query`, print the end-to-end span tree (parse, plan, cache, execution, WAL)")
	parallelism := flag.Int("parallelism", 0, "worker cap for `query` (0 = server default, 1 = serial, N>1 = at most N workers)")
	noCache := flag.Bool("no-cache", false, "force `query` to execute even if the server caches results")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &client{server: *server, user: *user, trace: *trace, spans: *spans, parallelism: *parallelism, noCache: *noCache}
	if err := c.run(args[0], args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func (c *client) run(cmd string, args []string) error {
	switch cmd {
	case "create-user":
		if len(args) != 2 {
			return fmt.Errorf("usage: create-user <name> <email>")
		}
		return c.post("/api/users", map[string]string{"name": args[0], "email": args[1]}, nil)
	case "upload":
		if len(args) != 2 {
			return fmt.Errorf("usage: upload <name> <file.csv>")
		}
		return c.upload(args[0], args[1])
	case "save":
		if len(args) != 2 {
			return fmt.Errorf("usage: save <name> <sql>")
		}
		return c.post("/api/datasets", map[string]string{"name": args[0], "sql": args[1]}, os.Stdout)
	case "query":
		if len(args) != 1 {
			return fmt.Errorf("usage: query <sql>")
		}
		return c.query(args[0])
	case "explain":
		if len(args) != 1 {
			return fmt.Errorf("usage: explain <sql>")
		}
		return c.explain(args[0])
	case "cache":
		switch {
		case len(args) == 0:
			return c.get("/api/admin/cache", os.Stdout)
		case len(args) == 1 && args[0] == "flush":
			return c.del("/api/admin/cache")
		default:
			return fmt.Errorf("usage: cache [flush]")
		}
	case "insights":
		section := "summary"
		if len(args) == 1 {
			section = args[0]
		} else if len(args) > 1 {
			return fmt.Errorf("usage: insights [section]")
		}
		return c.get("/api/insights/"+section, os.Stdout)
	case "traces":
		switch {
		case len(args) == 0:
			return c.get("/api/traces", os.Stdout)
		case len(args) == 1:
			return c.printSpans(args[0])
		default:
			return fmt.Errorf("usage: traces [id]")
		}
	case "ps":
		if len(args) != 0 {
			return fmt.Errorf("usage: ps")
		}
		return c.ps()
	case "kill":
		if len(args) != 1 {
			return fmt.Errorf("usage: kill <id>")
		}
		return c.del("/api/queries/" + args[0] + "/kill")
	case "health":
		if len(args) != 0 {
			return fmt.Errorf("usage: health")
		}
		return c.get("/api/health", os.Stdout)
	case "ls":
		return c.get("/api/datasets", os.Stdout)
	case "show":
		if len(args) != 2 {
			return fmt.Errorf("usage: show <owner> <name>")
		}
		return c.get("/api/datasets/"+args[0]+"/"+args[1], os.Stdout)
	case "publish":
		if len(args) != 2 {
			return fmt.Errorf("usage: publish <owner> <name>")
		}
		pub := true
		return c.put("/api/datasets/"+args[0]+"/"+args[1]+"/permissions", map[string]any{"public": &pub})
	case "share":
		if len(args) != 3 {
			return fmt.Errorf("usage: share <owner> <name> <user>")
		}
		return c.put("/api/datasets/"+args[0]+"/"+args[1]+"/permissions", map[string]any{"shareWith": []string{args[2]}})
	case "append":
		if len(args) != 3 {
			return fmt.Errorf("usage: append <owner> <name> <source>")
		}
		return c.post("/api/datasets/"+args[0]+"/"+args[1]+"/append", map[string]string{"source": args[2]}, os.Stdout)
	case "materialize":
		if len(args) != 3 {
			return fmt.Errorf("usage: materialize <owner> <name> <as>")
		}
		return c.post("/api/datasets/"+args[0]+"/"+args[1]+"/materialize", map[string]string{"as": args[2]}, os.Stdout)
	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("usage: delete <owner> <name>")
		}
		return c.del("/api/datasets/" + args[0] + "/" + args[1])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func (c *client) do(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.server+path, body)
	if err != nil {
		return err
	}
	if c.user != "" {
		req.Header.Set("X-SQLShare-User", c.user)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var e struct{ Error string }
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s (%d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	if out != nil {
		if w, ok := out.(io.Writer); ok {
			var pretty bytes.Buffer
			if json.Indent(&pretty, data, "", "  ") == nil {
				pretty.WriteByte('\n')
				_, err = pretty.WriteTo(w)
				return err
			}
			_, err = w.Write(data)
			return err
		}
		return json.Unmarshal(data, out)
	}
	return nil
}

func (c *client) post(path string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do("POST", path, bytes.NewReader(data), out)
}

func (c *client) put(path string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do("PUT", path, bytes.NewReader(data), os.Stdout)
}

func (c *client) get(path string, out any) error { return c.do("GET", path, nil, out) }
func (c *client) del(path string) error          { return c.do("DELETE", path, nil, os.Stdout) }

// upload stages the file then ingests it, mirroring the server-side staging
// protocol (§3.1): a failed ingest can be retried without re-uploading.
func (c *client) upload(name, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	var staged struct {
		StagedID string `json:"stagedId"`
	}
	if err := c.do("POST", "/api/staging", f, &staged); err != nil {
		return err
	}
	return c.post("/api/datasets", map[string]string{"name": name, "stagedId": staged.StagedID}, os.Stdout)
}

// query submits asynchronously and polls until done (§3.3).
func (c *client) query(sql string) error {
	var sub struct {
		ID      string `json:"id"`
		TraceID string `json:"traceId"`
	}
	body := map[string]any{"sql": sql}
	if c.parallelism > 0 {
		body["parallelism"] = c.parallelism
	}
	if c.noCache {
		body["no_cache"] = true
	}
	if err := c.post("/api/queries", body, &sub); err != nil {
		return err
	}
	for {
		var status struct {
			Status  string     `json:"status"`
			Error   string     `json:"error"`
			Cache   string     `json:"cache"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}
		if err := c.get("/api/queries/"+sub.ID, &status); err != nil {
			return err
		}
		switch status.Status {
		case "running":
			time.Sleep(100 * time.Millisecond)
		case "failed":
			return fmt.Errorf("query failed: %s", status.Error)
		case "killed":
			return fmt.Errorf("query killed: %s", status.Error)
		default:
			fmt.Println(strings.Join(status.Columns, "\t"))
			for _, row := range status.Rows {
				fmt.Println(strings.Join(row, "\t"))
			}
			if c.trace {
				if status.Cache == "hit" {
					// A hit never executed, so there is no trace to fetch.
					fmt.Println("-- result served from cache; no execution trace --")
				} else if err := c.printTrace(sub.ID); err != nil {
					return err
				}
			}
			if c.spans {
				// The job joined the submit request's trace; by the time the
				// poll reports done, the trace has been finalized and — if
				// interesting enough for the tail sampler — retained.
				if sub.TraceID == "" {
					fmt.Println("-- no span trace: span tracing is disabled on this server --")
				} else if err := c.printSpans(sub.TraceID); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// runningQuery mirrors one entry of the GET /api/queries/running snapshot.
type runningQuery struct {
	ID        string  `json:"id"`
	User      string  `json:"user"`
	SQL       string  `json:"sql"`
	Digest    string  `json:"digest"`
	Phase     string  `json:"phase"`
	DOP       int     `json:"dop"`
	ElapsedMs float64 `json:"elapsedMs"`
	Operator  string  `json:"operator"`
	Rows      int64   `json:"rows"`
	MemBytes  int64   `json:"memBytes"`
	Progress  float64 `json:"progress"`
	Killed    bool    `json:"killed"`
}

// ps renders the in-flight query snapshot as a table — the DBA view the
// kill switch acts on.
func (c *client) ps() error {
	var resp struct {
		Count   int            `json:"count"`
		Queries []runningQuery `json:"queries"`
	}
	if err := c.get("/api/queries/running", &resp); err != nil {
		return err
	}
	if resp.Count == 0 {
		fmt.Println("no queries running")
		return nil
	}
	fmt.Printf("%-8s %-10s %-10s %3s %10s %10s %10s %6s  %s\n",
		"ID", "USER", "PHASE", "DOP", "ELAPSED", "ROWS", "MEM", "PROG", "SQL")
	for _, q := range resp.Queries {
		prog := "?"
		if q.Progress >= 0 {
			prog = fmt.Sprintf("%.0f%%", q.Progress*100)
		}
		phase := q.Phase
		if q.Killed {
			phase = "killed"
		}
		sql := strings.Join(strings.Fields(q.SQL), " ")
		if len(sql) > 60 {
			sql = sql[:60] + "..."
		}
		fmt.Printf("%-8s %-10s %-10s %3d %9.0fms %10d %9dK %6s  %s\n",
			q.ID, q.User, phase, q.DOP, q.ElapsedMs, q.Rows, q.MemBytes/1024, prog, sql)
	}
	return nil
}

// traceNode mirrors a node of the /api/queries/{id}/trace response tree:
// the plan's estimates and the run's `actual` block.
type traceNode struct {
	PhysicalOp string  `json:"physicalOp"`
	LogicalOp  string  `json:"logicalOp"`
	Object     string  `json:"object"`
	NumRows    float64 `json:"numRows"`
	Actual     struct {
		Rows       int64 `json:"rows"`
		Executions int64 `json:"executions"`
		WallNs     int64 `json:"wallNs"`
		Bytes      int64 `json:"bytes"`
		Workers    int64 `json:"workers"`
	} `json:"actual"`
	Children []*traceNode `json:"children"`
}

// printTrace fetches and renders the execution trace of a completed query
// as an indented operator tree, SHOWPLAN-style: estimates beside actuals.
func (c *client) printTrace(id string) error {
	var resp struct {
		Trace *traceNode `json:"trace"`
	}
	if err := c.get("/api/queries/"+id+"/trace", &resp); err != nil {
		return err
	}
	fmt.Println("-- trace --")
	renderTrace(resp.Trace, 0)
	return nil
}

func renderTrace(n *traceNode, depth int) {
	if n == nil {
		return
	}
	label := n.PhysicalOp
	if n.LogicalOp != "" && n.LogicalOp != n.PhysicalOp {
		label += " (" + n.LogicalOp + ")"
	}
	if n.Object != "" {
		label += " [" + n.Object + "]"
	}
	a := n.Actual
	workers := ""
	if a.Workers > 1 {
		workers = fmt.Sprintf(" workers=%d", a.Workers)
	}
	fmt.Printf("%s%s  est=%.0f actual=%d execs=%d wall=%.3fms bytes=%d%s\n",
		strings.Repeat("  ", depth), label,
		n.NumRows, a.Rows, a.Executions, float64(a.WallNs)/1e6, a.Bytes, workers)
	for _, ch := range n.Children {
		renderTrace(ch, depth+1)
	}
}

// spanTrace mirrors the GET /api/traces/{id} response.
type spanTrace struct {
	ID           string     `json:"traceId"`
	Name         string     `json:"name"`
	User         string     `json:"user"`
	DurationMs   float64    `json:"durationMs"`
	Status       string     `json:"status"`
	Cache        string     `json:"cache"`
	DroppedSpans int        `json:"droppedSpans"`
	Spans        []spanData `json:"spans"`
}

type spanData struct {
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId"`
	Name       string            `json:"name"`
	StartUs    int64             `json:"startUs"`
	DurationMs float64           `json:"durationMs"`
	Rows       int64             `json:"rows"`
	Bytes      int64             `json:"bytes"`
	Err        string            `json:"error"`
	Attrs      map[string]string `json:"attrs"`
}

// printSpans fetches and renders one retained span tree. The trace
// endpoint's 404s carry machine-readable codes; a tail-sampled-out trace is
// reported as an expected outcome, not an error.
func (c *client) printSpans(id string) error {
	req, err := http.NewRequest("GET", c.server+"/api/traces/"+id, nil)
	if err != nil {
		return err
	}
	if c.user != "" {
		req.Header.Set("X-SQLShare-User", c.user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		var e struct{ Error, Code string }
		if json.Unmarshal(data, &e) == nil {
			if e.Code == "trace_sampled_out" {
				fmt.Printf("-- trace %s was fast and clean, so tail sampling kept only its summary (see `traces`) --\n", id)
				return nil
			}
			if e.Error != "" {
				return fmt.Errorf("%s (%d)", e.Error, resp.StatusCode)
			}
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	var t spanTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	renderSpans(&t)
	return nil
}

// renderSpans prints the span tree indented by parentage, each span with its
// offset from trace start and its own duration — the end-to-end picture
// (HTTP, auth, parse, plan, cache, execution operators, WAL) for one request.
func renderSpans(t *spanTrace) {
	fmt.Printf("-- trace %s  %s  user=%s  status=%s  %.3fms --\n",
		t.ID, t.Name, t.User, t.Status, t.DurationMs)
	byParent := map[string][]spanData{}
	for _, sp := range t.Spans {
		byParent[sp.ParentID] = append(byParent[sp.ParentID], sp)
	}
	var walk func(parent string, depth int)
	walk = func(parent string, depth int) {
		for _, sp := range byParent[parent] {
			line := fmt.Sprintf("%s%s  +%.3fms %.3fms",
				strings.Repeat("  ", depth), sp.Name, float64(sp.StartUs)/1000, sp.DurationMs)
			if sp.Rows > 0 {
				line += fmt.Sprintf(" rows=%d", sp.Rows)
			}
			if sp.Bytes > 0 {
				line += fmt.Sprintf(" bytes=%d", sp.Bytes)
			}
			if sp.Err != "" {
				line += " error=" + sp.Err
			}
			for _, k := range []string{"cache", "workers", "object", "status"} {
				if v := sp.Attrs[k]; v != "" {
					line += " " + k + "=" + v
				}
			}
			fmt.Println(line)
			walk(sp.SpanID, depth+1)
		}
	}
	walk("", 0)
	if t.DroppedSpans > 0 {
		fmt.Printf("-- %d spans dropped (per-trace cap) --\n", t.DroppedSpans)
	}
}

func (c *client) explain(sql string) error {
	var sub struct {
		ID string `json:"id"`
	}
	if err := c.post("/api/queries", map[string]string{"sql": sql}, &sub); err != nil {
		return err
	}
	return c.get("/api/queries/"+sub.ID+"/plan", os.Stdout)
}
