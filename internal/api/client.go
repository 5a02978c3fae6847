package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/store"
)

// Client talks the versioned job API to a phantom-serve daemon over
// http.DefaultClient, which suits everything including streams (it has no
// global timeout: result streams are open-ended while a campaign runs).
type Client struct {
	// Base is the daemon address: "host:port" or a full http URL.
	Base string
}

// NewClient normalizes addr ("host:port", ":8080", or "http://...") into a
// client.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		if strings.HasPrefix(addr, ":") {
			addr = "localhost" + addr
		}
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

// do issues a request and decodes the JSON response into out, converting
// non-2xx responses (including api.Error envelopes) into errors.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into a useful error.
func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e Error
	if json.Unmarshal(b, &e) == nil && e.Message != "" {
		return fmt.Errorf("api: %s: %s", resp.Status, e.Message)
	}
	return fmt.Errorf("api: %s: %s", resp.Status, strings.TrimSpace(string(b)))
}

// Submit posts the spec and returns the accepted job's status.
func (c *Client) Submit(spec JobSpec) (*JobStatus, error) {
	spec.SchemaVersion = SchemaVersion
	var st JobStatus
	if err := c.do(http.MethodPost, PathPrefix+"/jobs", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status.
func (c *Client) Job(id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(http.MethodGet, PathPrefix+"/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job in submission order.
func (c *Client) Jobs() ([]JobStatus, error) {
	var l JobList
	if err := c.do(http.MethodGet, PathPrefix+"/jobs", nil, &l); err != nil {
		return nil, err
	}
	return l.Jobs, nil
}

// Cancel asks the daemon to cancel the job and returns its status after
// the request landed (the job may still be draining its in-flight runs).
func (c *Client) Cancel(id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(http.MethodDelete, PathPrefix+"/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Results streams the job's runs in submission order, calling onRun for
// each as it lands, and returns the terminal report (stats + final job
// status, no result rows — they just streamed). It blocks until the job
// reaches a terminal state. A nil onRun just waits for completion. Run
// lines in the form RunLineWriter writes are decoded without reflection;
// any other line goes to json.Unmarshal.
func (c *Client) Results(id string, onRun func(RunResult)) (*Report, error) {
	resp, err := http.DefaultClient.Get(c.Base + PathPrefix + "/jobs/" + id + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	var dec runDecoder
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rr RunResult
		if dec.decode(line, &rr) {
			if onRun != nil {
				onRun(rr)
			}
			continue
		}
		var l ResultLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("api: bad stream line: %w", err)
		}
		switch {
		case l.Run != nil:
			if onRun != nil {
				onRun(*l.Run)
			}
		case l.Report != nil:
			return l.Report, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("api: results stream ended without a terminal report")
}

// QueryNDJSON issues a GET against an analytics endpoint, hands each
// non-empty NDJSON line to onRow, and returns the scan statistics from the
// Phantom-Scan-Stats trailer. A missing trailer is an error: it means the
// body was truncated (trailers only arrive after a complete chunked
// stream) or the server predates the analytics plane.
func (c *Client) QueryNDJSON(path string, v url.Values, onRow func(line []byte) error) (QueryStats, error) {
	var stats QueryStats
	u := c.Base + path
	if enc := v.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := http.DefaultClient.Get(u)
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return stats, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := onRow(line); err != nil {
			return stats, err
		}
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	t := resp.Trailer.Get(TrailerScanStats)
	if t == "" {
		return stats, fmt.Errorf("api: response missing %s trailer (truncated stream?)", TrailerScanStats)
	}
	if err := json.Unmarshal([]byte(t), &stats); err != nil {
		return stats, fmt.Errorf("api: bad %s trailer: %w", TrailerScanStats, err)
	}
	return stats, nil
}

// CrossSummaries runs a summary aggregation over many job stores (nil
// jobs: every job with a store). Rows arrive sorted by (experiment, sweep,
// metric).
func (c *Client) CrossSummaries(jobs []string, q store.Query, fn func(AggregateRow) error) (QueryStats, error) {
	return c.QueryNDJSON(PathPrefix+"/query", crossValues("summary", jobs, q), decodeRow(fn))
}

// CrossCounters merges telemetry snapshots over many job stores (nil
// jobs: every job with a store). Rows arrive sorted by (experiment, sweep)
// with Runs counting the merged snapshots.
func (c *Client) CrossCounters(jobs []string, q store.Query, fn func(CountersRow) error) (QueryStats, error) {
	return c.QueryNDJSON(PathPrefix+"/query", crossValues("counters", jobs, q), decodeRow(fn))
}

// crossValues encodes the cross-job query parameters.
func crossValues(kind string, jobs []string, q store.Query) url.Values {
	v := QueryValues(q)
	v.Set("kind", kind)
	if len(jobs) > 0 {
		v.Set("jobs", strings.Join(jobs, ","))
	}
	return v
}
