package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The wire shapes below are the daemon's documented JSON (docs/API.md),
// declared here rather than imported from internal/service so the
// benchmark checks what a real client would see.

type allocateRequest struct {
	GraphID string  `json:"graph_id"`
	Algo    string  `json:"algo"`
	Budgets []int   `json:"budgets"`
	Eps     float64 `json:"eps"`
	Seed    uint64  `json:"seed"`
}

type allocateResult struct {
	Allocation struct {
		Seeds [][]int64 `json:"seeds"`
	} `json:"allocation"`
	NumRRSets    int  `json:"num_rr_sets"`
	SketchCached bool `json:"sketch_cached"`
}

type stageStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

type jobView struct {
	ID        string                `json:"id"`
	State     string                `json:"state"`
	Error     string                `json:"error"`
	Result    *allocateResult       `json:"result"`
	Stages    map[string]stageStats `json:"stages"`
	Resources map[string]int64      `json:"resources"`
}

// counters are the /v1/stats fields the identity checks read, flat so
// that deltas and sums over backends are plain arithmetic. A daemon
// without a disk tier reports zeros for the disk fields.
type counters struct {
	cacheHits, cacheMisses, diskHits, diskSpills, sketchExtends int64
}

func (c counters) sub(o counters) counters {
	return counters{c.cacheHits - o.cacheHits, c.cacheMisses - o.cacheMisses, c.diskHits - o.diskHits, c.diskSpills - o.diskSpills, c.sketchExtends - o.sketchExtends}
}

func (c counters) add(o counters) counters {
	return counters{c.cacheHits + o.cacheHits, c.cacheMisses + o.cacheMisses, c.diskHits + o.diskHits, c.diskSpills + o.diskSpills, c.sketchExtends + o.sketchExtends}
}

// api is one client's handle on an HTTP endpoint: its own transport, so
// its own single keep-alive connection.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	return &api{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one request and returns status and body. body may be nil.
func (a *api) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

// getJSON GETs path and decodes a 200 body into v.
func (a *api) getJSON(ctx context.Context, path string, v any) error {
	status, body, err := a.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// postJSON POSTs v as JSON and decodes the reply into out, accepting
// any of the listed statuses.
func (a *api) postJSON(ctx context.Context, path string, v, out any, accept ...int) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	status, body, err := a.do(ctx, http.MethodPost, path, payload)
	if err != nil {
		return 0, err
	}
	ok := false
	for _, s := range accept {
		ok = ok || s == status
	}
	if !ok {
		return status, fmt.Errorf("POST %s: status %d: %s", path, status, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return status, fmt.Errorf("POST %s: %w", path, err)
		}
	}
	return status, nil
}

// waitTerminal reads the job's SSE stream to its terminal frame and
// returns that frame's event name (done, failed or canceled). Reading
// the stream instead of polling means the client learns of completion
// when the daemon publishes it, with no poll-interval quantisation.
func (a *api) waitTerminal(ctx context.Context, jobID string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // diagnostic only
		return "", fmt.Errorf("GET events %s: status %d: %s", jobID, resp.StatusCode, b)
	}
	terminal := ""
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			switch name = strings.TrimSpace(name); name {
			case "done", "failed", "canceled":
				terminal = name
			}
		}
		if err == io.EOF {
			break // the daemon ends the stream after the terminal frame
		}
		if err != nil {
			return "", fmt.Errorf("GET events %s: %w", jobID, err)
		}
	}
	if terminal == "" {
		return "", fmt.Errorf("GET events %s: stream ended without a terminal frame", jobID)
	}
	return terminal, nil
}

// opResult is one completed operation as the client saw it.
type opResult struct {
	req                        *allocateRequest
	start, posted, waited, end time.Time
	view                       jobView
}

func (r *opResult) latencyMS() float64 { return ms(r.end.Sub(r.start)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocate runs one operation: POST /v1/allocate → 202, the job's SSE
// stream to its terminal frame, then GET /v1/jobs/{id} for the result.
// Latency runs from before the POST to the parsed result.
func (a *api) allocate(ctx context.Context, req *allocateRequest) (*opResult, error) {
	res := opResult{req: req}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	res.start = time.Now()
	if _, err := a.postJSON(ctx, "/v1/allocate", req, &accepted, http.StatusAccepted); err != nil {
		return nil, err
	}
	res.posted = time.Now()
	if _, err := a.waitTerminal(ctx, accepted.JobID); err != nil {
		return nil, err
	}
	res.waited = time.Now()
	if err := a.getJSON(ctx, "/v1/jobs/"+accepted.JobID, &res.view); err != nil {
		return nil, err
	}
	res.end = time.Now()
	return &res, nil
}

// checkResult verifies one job's output: terminal state done, and
// exactly budgets[i] distinct seeds for item i.
func checkResult(v *jobView, budgets []int) error {
	if v.State != "done" {
		return fmt.Errorf("job %s: state %q (%s)", v.ID, v.State, v.Error)
	}
	if v.Result == nil {
		return fmt.Errorf("job %s: done without a result", v.ID)
	}
	seeds := v.Result.Allocation.Seeds
	if len(seeds) != len(budgets) {
		return fmt.Errorf("job %s: %d items allocated, want %d", v.ID, len(seeds), len(budgets))
	}
	for i, want := range budgets {
		distinct := make(map[int64]bool, len(seeds[i]))
		for _, s := range seeds[i] {
			distinct[s] = true
		}
		if len(seeds[i]) != want || len(distinct) != want {
			return fmt.Errorf("job %s: item %d has %d seeds (%d distinct), want %d", v.ID, i, len(seeds[i]), len(distinct), want)
		}
	}
	return nil
}

// stats fetches one backend's identity counters from GET /v1/stats.
func (a *api) stats(ctx context.Context) (counters, error) {
	var body struct {
		SketchCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"sketch_cache"`
		DiskTier struct {
			Hits   int64 `json:"hits"`
			Spills int64 `json:"spills"`
		} `json:"disk_tier"`
		Batch struct {
			SketchExtends int64 `json:"sketch_extends"`
		} `json:"batch"`
	}
	err := a.getJSON(ctx, "/v1/stats", &body)
	return counters{body.SketchCache.Hits, body.SketchCache.Misses, body.DiskTier.Hits, body.DiskTier.Spills, body.Batch.SketchExtends}, err
}

// waitRouterReady polls the router's health view until it reports the
// expected number of live backends (its first probe round).
func waitRouterReady(ctx context.Context, rt *daemon, backends int) error {
	a := newAPI("http://" + rt.addr)
	defer a.close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Alive int `json:"alive"`
		}
		if err := a.getJSON(ctx, "/v1/healthz", &h); err == nil && h.Alive == backends {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: router on %s never saw %d live backends\n%s", rt.addr, backends, rt.logTail())
}
