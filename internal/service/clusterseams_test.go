package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/service"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
)

func TestHealthzV1ReportsNode(t *testing.T) {
	e := newEnv(t, service.Options{NodeID: "b7"})
	var hz service.HealthzResponse
	e.doJSON("GET", "/v1/healthz", nil, &hz, http.StatusOK)
	if hz.Status != "ok" || hz.Node != "b7" {
		t.Errorf("healthz = %+v", hz)
	}

	// Job ids carry the node prefix so a router can route them back.
	id := e.registerGraph(t)
	job := e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}})
	if job != "b7-j1" {
		t.Errorf("job id = %q, want b7-j1", job)
	}
	var view allocJobView
	e.waitJob(t, job, &view)
	if view.State != service.JobDone {
		t.Fatalf("allocate failed: %s", view.Error)
	}
}

func TestJobsStateFilter(t *testing.T) {
	e := newEnv(t, service.Options{})
	info := registerInline(t, e)
	var done allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}), &done)
	// A second job that fails at run time cannot easily be forced, so the
	// filter test uses the states at hand: one done job, zero canceled.
	var list struct {
		Jobs []allocJobView `json:"jobs"`
	}
	e.doJSON("GET", "/v1/jobs?state=done", nil, &list, http.StatusOK)
	if len(list.Jobs) != 1 || list.Jobs[0].State != service.JobDone {
		t.Errorf("?state=done = %+v", list.Jobs)
	}
	e.doJSON("GET", "/v1/jobs?state=canceled", nil, &list, http.StatusOK)
	if len(list.Jobs) != 0 {
		t.Errorf("?state=canceled = %+v", list.Jobs)
	}
	if status, _ := e.do("GET", "/v1/jobs?state=bogus", nil); status != http.StatusBadRequest {
		t.Errorf("?state=bogus: status %d, want 400", status)
	}
}

func TestJobAuditTrailSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := newEnv(t, service.Options{DataDir: dir})
	info := registerInline(t, e1)
	var job allocJobView
	e1.waitJob(t, e1.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}), &job)
	if job.State != service.JobDone {
		t.Fatalf("allocate failed: %s", job.Error)
	}
	e1.srv.Close()
	e1.svc.Close()

	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := st.JobHistory()
	if len(records) != 1 {
		t.Fatalf("audit trail holds %d records, want 1", len(records))
	}
	var rec service.JobView
	if err := json.Unmarshal(records[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != service.JobDone || rec.Kind != "allocate" || rec.Finished == "" {
		t.Errorf("audit record = %+v", rec)
	}

	// A restarted daemon appends to the same trail.
	e2 := newEnv(t, service.Options{DataDir: dir})
	var job2 allocJobView
	e2.waitJob(t, e2.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}), &job2)
	// The record is appended after the job's state turns terminal; Close
	// waits for the worker that does it.
	e2.srv.Close()
	e2.svc.Close()
	if n := len(st.JobHistory()); n != 2 {
		t.Errorf("audit trail holds %d records after restart, want 2", n)
	}
}

func TestSketchExportImport(t *testing.T) {
	e1 := newEnv(t, service.Options{})
	info := registerInline(t, e1)
	var warm warmJobView
	e1.waitJob(t, e1.submit(t, "/v1/graphs/"+info.ID+"/warm", service.WarmRequest{Budgets: []int{2, 2}}), &warm)
	if warm.State != service.JobDone {
		t.Fatalf("warm failed: %s", warm.Error)
	}

	status, stream := e1.do("GET", "/v1/graphs/"+info.ID+"/sketches", nil)
	if status != http.StatusOK || len(stream) == 0 {
		t.Fatalf("export: status %d, %d bytes", status, len(stream))
	}

	// Sketch import is a cluster endpoint: a daemon without -node must
	// refuse to let callers install authoritative sketch contents.
	if status, _ := e1.do("POST", "/v1/graphs/"+info.ID+"/sketches", stream); status != http.StatusForbidden {
		t.Errorf("import on nodeless daemon: status %d, want 403", status)
	}

	// A second backend with the same graph resident imports the stream
	// and answers the equivalent allocate warm.
	e2 := newEnv(t, service.Options{NodeID: "b9"})
	registerInline(t, e2)
	var imp struct {
		Imported int `json:"imported"`
		Skipped  int `json:"skipped"`
	}
	e2.doJSON("POST", "/v1/graphs/"+info.ID+"/sketches", stream, &imp, http.StatusOK)
	if imp.Imported != 1 || imp.Skipped != 0 {
		t.Fatalf("import = %+v", imp)
	}
	var job allocJobView
	e2.waitJob(t, e2.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}), &job)
	if job.State != service.JobDone {
		t.Fatalf("allocate failed: %s", job.Error)
	}
	if !job.Result.SketchCached {
		t.Error("allocate after import did not hit the shipped sketch")
	}

	// Importing the same stream again skips the resident entry.
	e2.doJSON("POST", "/v1/graphs/"+info.ID+"/sketches", stream, &imp, http.StatusOK)
	if imp.Imported != 0 || imp.Skipped != 1 {
		t.Errorf("second import = %+v", imp)
	}

	// Unknown graphs 404; garbage streams 400.
	if status, _ := e2.do("GET", "/v1/graphs/g000/sketches", nil); status != http.StatusNotFound {
		t.Errorf("export unknown graph: status %d", status)
	}
	if status, _ := e2.do("POST", "/v1/graphs/"+info.ID+"/sketches", []byte("not a stream")); status != http.StatusBadRequest {
		t.Errorf("import garbage: status %d", status)
	}

	// Per-family stats see the imported sketch (bundleGRD → prima).
	var stats service.StatsResponse
	e2.doJSON("GET", "/v1/stats", nil, &stats, http.StatusOK)
	if stats.SketchCache.EntriesByFamily["prima"] != 1 {
		t.Errorf("entries_by_family = %v", stats.SketchCache.EntriesByFamily)
	}
}

// TestImportedSketchOfAnotherFamilyIsRefused ships a CRC-valid IMM
// sketch under a PRIMA cache key. The import itself succeeds — the
// stream cannot know which family a key's planner expects — so the
// planner's family check is what keeps bundleGRD from answering with an
// IMM order, whose prefixes carry no prefix-preserving guarantee.
func TestImportedSketchOfAnotherFamilyIsRefused(t *testing.T) {
	e := newEnv(t, service.Options{NodeID: "b9"})
	info := registerInline(t, e)
	status, wmg := e.do("GET", "/v1/graphs/"+info.ID+"/export", nil)
	if status != http.StatusOK {
		t.Fatalf("export: status %d", status)
	}
	_, g, err := store.DecodeGraph(bytes.NewReader(wmg))
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{2, 1}
	eps, ell := service.ResolveEpsEll(0, 0)
	key := service.SketchKey(info.ID, prima.Family, int(graph.CascadeIC), eps, ell, prima.CanonicalBudgets(budgets, g.N()))
	var stream bytes.Buffer
	if err := store.WriteSketchStreamEntry(&stream, key, imm.BuildSketch(g, 2, rrset.Options{}, stats.NewRNG(1))); err != nil {
		t.Fatal(err)
	}
	var imp struct {
		Imported int `json:"imported"`
	}
	e.doJSON("POST", "/v1/graphs/"+info.ID+"/sketches", stream.Bytes(), &imp, http.StatusOK)
	if imp.Imported != 1 {
		t.Fatalf("import = %+v", imp)
	}

	var job allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: info.ID, Algo: core.AlgoBundleGRD, Budgets: budgets}), &job)
	if job.State != service.JobFailed || job.Result != nil || !strings.Contains(job.Error, `family "imm"`) {
		t.Fatalf("bundleGRD over an IMM sketch: state %s, result %+v, error %q; want a failure naming the family", job.State, job.Result, job.Error)
	}
}

func TestGraphExportRoundTrip(t *testing.T) {
	e := newEnv(t, service.Options{})
	info := registerInline(t, e)
	status, wmg := e.do("GET", "/v1/graphs/"+info.ID+"/export", nil)
	if status != http.StatusOK {
		t.Fatalf("export: status %d", status)
	}
	name, g, err := store.DecodeGraph(bytes.NewReader(wmg))
	if err != nil {
		t.Fatal(err)
	}
	if name != "tri" || store.GraphID(g) != info.ID {
		t.Errorf("export decoded to name %q id %q, want tri %s", name, store.GraphID(g), info.ID)
	}

	// The exported bytes re-register over the wmg field with the same id.
	e2 := newEnv(t, service.Options{})
	var got service.GraphInfo
	e2.doJSON("POST", "/v1/graphs", service.GraphRequest{Wmg: wmg}, &got, http.StatusCreated)
	if got.ID != info.ID || got.Name != "tri" {
		t.Errorf("wmg registration = %+v, want id %s", got, info.ID)
	}
}

// TestImportGraphForgedLengthRejected sends /v1/graphs/import a 30-byte
// body whose frame header declares a multi-GiB payload — the remote-OOM
// shape. The daemon must answer 400 (truncated) instead of committing
// the declared allocation.
func TestImportGraphForgedLengthRejected(t *testing.T) {
	e := newEnv(t, service.Options{})
	var frame bytes.Buffer
	frame.WriteString(store.GraphMagic)
	var word [8]byte
	binary.LittleEndian.PutUint32(word[:4], store.Version)
	frame.Write(word[:4])
	binary.LittleEndian.PutUint64(word[:], uint64(3<<30))
	frame.Write(word[:])
	frame.WriteString("short body")
	status, raw := e.do("POST", "/v1/graphs/import", frame.Bytes())
	if status != http.StatusBadRequest {
		t.Errorf("forged import: status %d: %s", status, raw)
	}
}

// TestClusterTokenGatesInternalEndpoints starts a backend with a cluster
// token: the cluster-internal endpoints (raw graph import, sketch
// export/import) must refuse requests without the shared secret — -node
// is a deployment hint, not authentication — while requests carrying it
// pass, and the public API stays open.
func TestClusterTokenGatesInternalEndpoints(t *testing.T) {
	const token = "sesame"
	e := newEnv(t, service.Options{NodeID: "b0", ClusterToken: token})
	info := registerInline(t, e) // public registration needs no token

	var warm warmJobView
	e.waitJob(t, e.submit(t, "/v1/graphs/"+info.ID+"/warm", service.WarmRequest{Budgets: []int{2, 2}}), &warm)
	if warm.State != service.JobDone {
		t.Fatalf("warm failed: %s", warm.Error)
	}

	withToken := func(method, path string, body []byte, tok string) (int, []byte) {
		t.Helper()
		return withTokenOn(t, e, method, path, body, tok)
	}

	// Tokenless (and wrong-token) access to the internal endpoints: 403.
	for _, tok := range []string{"", "wrong"} {
		if status, _ := withToken("GET", "/v1/graphs/"+info.ID+"/sketches", nil, tok); status != http.StatusForbidden {
			t.Errorf("sketch export with token %q: status %d, want 403", tok, status)
		}
		if status, _ := withToken("POST", "/v1/graphs/"+info.ID+"/sketches", []byte("x"), tok); status != http.StatusForbidden {
			t.Errorf("sketch import with token %q: status %d, want 403", tok, status)
		}
		if status, _ := withToken("POST", "/v1/graphs/import", []byte("x"), tok); status != http.StatusForbidden {
			t.Errorf("graph import with token %q: status %d, want 403", tok, status)
		}
	}

	// With the token the same routes work end to end.
	status, stream := withToken("GET", "/v1/graphs/"+info.ID+"/sketches", nil, token)
	if status != http.StatusOK || len(stream) == 0 {
		t.Fatalf("export with token: status %d, %d bytes", status, len(stream))
	}
	e2 := newEnv(t, service.Options{NodeID: "b1", ClusterToken: token})
	registerInline(t, e2)
	if status, raw := withTokenOn(t, e2, "POST", "/v1/graphs/"+info.ID+"/sketches", stream, token); status != http.StatusOK {
		t.Fatalf("import with token: status %d: %s", status, raw)
	}
}

// withTokenOn issues one request against env e, attaching the cluster
// token when tok is non-empty.
func withTokenOn(t *testing.T, e *env, method, path string, body []byte, tok string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tok != "" {
		req.Header.Set(service.ClusterTokenHeader, tok)
	}
	resp, err := e.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}
