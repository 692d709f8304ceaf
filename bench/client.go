package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

const userHeader = "X-SQLShare-User"

// numConnections is the generator's connection count: one per CPU of the
// host the sizes were tuned on, so the generator cannot occupy more of the
// machine than the server does.
const numConnections = 2

// restClient drives the server's REST interface over a bounded set of
// keep-alive connections.
type restClient struct {
	base string
	http *http.Client
	// tr, when set, receives a span per op and per protocol request, filed
	// under path.
	tr   *tracer
	path string
}

func newRESTClient(base string) *restClient {
	return &restClient{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     numConnections,
			MaxIdleConnsPerHost: numConnections,
			DisableCompression:  true,
		}},
	}
}

func (c *restClient) close() { c.http.CloseIdleConnections() }

// httpStatusError is a response whose status the operation did not expect.
type httpStatusError struct {
	method, path string
	code         int
	body         string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.path, e.code, e.body)
}

// do sends one request and returns the response body; any status other than
// want is an error.
func (c *restClient) do(ctx context.Context, method, path, user string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if user != "" {
		req.Header.Set(userHeader, user)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		if len(data) > 300 {
			data = data[:300]
		}
		return nil, &httpStatusError{method: method, path: path, code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

func (c *restClient) doJSON(ctx context.Context, method, path, user string, payload any, want int) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return c.do(ctx, method, path, user, body, want)
}

func (c *restClient) createUser(ctx context.Context, name string) error {
	_, err := c.doJSON(ctx, "POST", "/api/users", "",
		map[string]string{"name": name, "email": name + "@bench.invalid"}, http.StatusCreated)
	return err
}

// upload is the two-step §3.1 path: stage the file, then create the dataset
// from the staged bytes.
func (c *restClient) upload(ctx context.Context, user, name string, data []byte) error {
	out, err := c.do(ctx, "POST", "/api/staging", user, data, http.StatusCreated)
	if err != nil {
		return err
	}
	var staged struct {
		StagedID string `json:"stagedId"`
	}
	if err := json.Unmarshal(out, &staged); err != nil {
		return fmt.Errorf("staging response: %w", err)
	}
	_, err = c.doJSON(ctx, "POST", "/api/datasets", user,
		map[string]string{"name": name, "stagedId": staged.StagedID}, http.StatusCreated)
	return err
}

func (c *restClient) saveView(ctx context.Context, user, name, sql string) error {
	_, err := c.doJSON(ctx, "POST", "/api/datasets", user,
		map[string]string{"name": name, "sql": sql}, http.StatusCreated)
	return err
}

func (c *restClient) setPublic(ctx context.Context, user, name string) error {
	_, err := c.doJSON(ctx, "PUT", "/api/datasets/"+user+"/"+name+"/permissions", user,
		map[string]any{"public": true}, http.StatusOK)
	return err
}

func (c *restClient) appendTo(ctx context.Context, user, target, source string) error {
	_, err := c.doJSON(ctx, "POST", "/api/datasets/"+user+"/"+target+"/append", user,
		map[string]string{"source": source}, http.StatusOK)
	return err
}

func (c *restClient) materialize(ctx context.Context, user, source, as string) error {
	_, err := c.doJSON(ctx, "POST", "/api/datasets/"+user+"/"+source+"/materialize", user,
		map[string]string{"as": as}, http.StatusCreated)
	return err
}

// queryResult is the final status response of an asynchronous query.
type queryResult struct {
	Status  string     `json:"status"`
	Cache   string     `json:"cache"`
	Error   string     `json:"error"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// queryTiming splits a query's client-observed time at the protocol's two
// requests.
type queryTiming struct{ submit, poll time.Duration }

// query runs the §3.3 asynchronous protocol: submit, then long-poll the
// status endpoint until the job is final.
func (c *restClient) query(ctx context.Context, user, sql string) (*queryResult, queryTiming, error) {
	var t queryTiming
	start := time.Now()
	out, err := c.doJSON(ctx, "POST", "/api/queries", user, map[string]string{"sql": sql}, http.StatusAccepted)
	t.submit = time.Since(start)
	if err != nil {
		return nil, t, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &sub); err != nil || sub.ID == "" {
		return nil, t, fmt.Errorf("submit response %q has no id", out)
	}
	pollStart := time.Now()
	res, err := c.poll(ctx, user, sub.ID)
	t.poll = time.Since(pollStart)
	return res, t, err
}

// poll long-polls a job's status until it is final.
func (c *restClient) poll(ctx context.Context, user, id string) (*queryResult, error) {
	for {
		out, err := c.do(ctx, "GET", "/api/queries/"+id+"?wait=10s", user, nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		var res queryResult
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, fmt.Errorf("status response: %w", err)
		}
		switch res.Status {
		case "done":
			return &res, nil
		case "running":
			continue
		default:
			return nil, fmt.Errorf("query %s: %s", res.Status, res.Error)
		}
	}
}

// scrape reads the server's /metrics.
func (c *restClient) scrape(ctx context.Context) (promSample, error) {
	out, err := c.do(ctx, "GET", "/metrics", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parsePromText(string(out)), nil
}

// hashResult fingerprints a result set as (column names, rows), each cell
// rendered the way the status endpoint renders it, so a REST response and
// an in-process engine.Result of the same query hash alike.
func hashResult(columns []string, rows [][]string) uint64 {
	h := fnv.New64a()
	sep := []byte{0}
	for _, c := range columns {
		h.Write([]byte(c))
		h.Write(sep)
	}
	h.Write([]byte{1})
	for _, row := range rows {
		for _, cell := range row {
			h.Write([]byte(cell))
			h.Write(sep)
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}
