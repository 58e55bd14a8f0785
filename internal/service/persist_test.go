package service_test

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/service"
	"uicwelfare/internal/store"
	"uicwelfare/internal/telemetry"
)

// triangleEdges is a tiny deterministic graph for persistence tests.
const triangleEdges = "0 1 0.5\n1 2 0.5\n2 0 0.5\n0 2 0.5\n"

func registerInline(t *testing.T, e *env) service.GraphInfo {
	t.Helper()
	var info service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{
		Name: "tri", Edges: triangleEdges, KeepProbs: true,
	}, &info, http.StatusCreated)
	return info
}

func TestContentAddressedDedupe(t *testing.T) {
	e := newEnv(t, service.Options{})
	info := registerInline(t, e)
	if !strings.HasPrefix(info.ID, "g") || len(info.ID) != 17 {
		t.Fatalf("id %q is not a content address", info.ID)
	}

	// The same content again: 200 with the resident entry, no new graph.
	var dup service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{
		Name: "other-name", Edges: triangleEdges, KeepProbs: true,
	}, &dup, http.StatusOK)
	if dup.ID != info.ID || dup.Name != "tri" {
		t.Errorf("dedupe returned %+v, want the original entry", dup)
	}
	var list struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	e.doJSON("GET", "/v1/graphs", nil, &list, http.StatusOK)
	if len(list.Graphs) != 1 {
		t.Errorf("registry holds %d graphs after dedupe, want 1", len(list.Graphs))
	}

	// Dedupe also wins over a full registry: re-registering resident
	// content never needs a free slot.
	full := newEnv(t, service.Options{MaxGraphs: 1})
	registerInline(t, full)
	var again service.GraphInfo
	full.doJSON("POST", "/v1/graphs", service.GraphRequest{
		Edges: triangleEdges, KeepProbs: true,
	}, &again, http.StatusOK)

	// Different probabilities are a different diffusion instance: the
	// weighted-cascade variant of the same topology gets its own id.
	var wc service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Edges: triangleEdges}, &wc, http.StatusCreated)
	if wc.ID == info.ID {
		t.Error("weighted-cascade variant collided with kept-probs graph")
	}
}

func TestRestartKeepsGraphsAndServesSketchesFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := func(id string) service.AllocateRequest {
		return service.AllocateRequest{GraphID: id, Budgets: []int{2, 2}, Seed: 3}
	}

	// First daemon lifetime: register, allocate cold.
	e1 := newEnv(t, service.Options{DataDir: dir})
	info := registerInline(t, e1)
	var job allocJobView
	e1.waitJob(t, e1.submit(t, "/v1/allocate", req(info.ID)), &job)
	if job.State != service.JobDone {
		t.Fatalf("first allocate failed: %s", job.Error)
	}
	if job.Result.SketchCached {
		t.Error("cold allocate claims a cache hit")
	}
	var st service.StatsResponse
	e1.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.DiskTier == nil || st.DiskTier.Spills != 1 {
		t.Fatalf("disk tier after build = %+v, want 1 spill", st.DiskTier)
	}
	e1.srv.Close()
	e1.svc.Close()

	// Second lifetime over the same data dir: the graph is back under
	// the same id, and the repeated allocate is served from the disk
	// tier — no rebuild.
	e2 := newEnv(t, service.Options{DataDir: dir})
	var got service.GraphInfo
	e2.doJSON("GET", "/v1/graphs/"+info.ID, nil, &got, http.StatusOK)
	if got.Nodes != info.Nodes || got.Edges != info.Edges || got.Name != "tri" {
		t.Fatalf("restored graph = %+v, want %+v", got, info)
	}

	var job2 allocJobView
	e2.waitJob(t, e2.submit(t, "/v1/allocate", req(info.ID)), &job2)
	if job2.State != service.JobDone {
		t.Fatalf("post-restart allocate failed: %s", job2.Error)
	}
	if !job2.Result.SketchCached {
		t.Error("post-restart allocate did not report a cache hit")
	}
	e2.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.DiskTier == nil || st.DiskTier.Hits != 1 {
		t.Errorf("disk tier after restart = %+v, want 1 hit", st.DiskTier)
	}
	// The allocation itself must match the pre-restart one: the restored
	// sketch is the same collection, and selection is deterministic.
	if gotAlloc, want := job2.Result.Allocation, job.Result.Allocation; len(gotAlloc.Seeds) != len(want.Seeds) {
		t.Errorf("allocation shape changed across restart: %+v vs %+v", gotAlloc, want)
	} else {
		for i := range want.Seeds {
			for j := range want.Seeds[i] {
				if gotAlloc.Seeds[i][j] != want.Seeds[i][j] {
					t.Fatalf("allocation changed across restart: %+v vs %+v", gotAlloc, want)
				}
			}
		}
	}

	// DELETE removes the persisted artifacts too: a third lifetime
	// starts empty.
	e2.doJSON("DELETE", "/v1/graphs/"+info.ID, nil, nil, http.StatusOK)
	e2.srv.Close()
	e2.svc.Close()
	e3 := newEnv(t, service.Options{DataDir: dir})
	var list struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	e3.doJSON("GET", "/v1/graphs", nil, &list, http.StatusOK)
	if len(list.Graphs) != 0 {
		t.Errorf("deleted graph resurrected: %+v", list.Graphs)
	}
}

func TestCorruptSpillFallsBackToRebuild(t *testing.T) {
	dir := t.TempDir()
	e1 := newEnv(t, service.Options{DataDir: dir})
	info := registerInline(t, e1)
	req := service.AllocateRequest{GraphID: info.ID, Budgets: []int{2, 2}}
	var job allocJobView
	e1.waitJob(t, e1.submit(t, "/v1/allocate", req), &job)
	if job.State != service.JobDone {
		t.Fatalf("allocate failed: %s", job.Error)
	}
	e1.srv.Close()
	e1.svc.Close()

	// Flip a payload byte in every spilled sketch.
	matches, err := filepath.Glob(filepath.Join(dir, "sketches", "*.wms"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no spills found: %v", err)
	}
	for _, path := range matches {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-6] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The restarted daemon must rebuild cleanly: the corrupt file reads
	// as a miss (counted), the job still succeeds, and the rebuild's
	// spill replaces the bad artifact.
	e2 := newEnv(t, service.Options{DataDir: dir})
	var job2 allocJobView
	e2.waitJob(t, e2.submit(t, "/v1/allocate", req), &job2)
	if job2.State != service.JobDone {
		t.Fatalf("allocate after corruption failed: %s", job2.Error)
	}
	if job2.Result.SketchCached {
		t.Error("corrupt spill still counted as a cache hit")
	}
	var st service.StatsResponse
	e2.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if st.DiskTier == nil || st.DiskTier.LoadErrors != 1 || st.DiskTier.Spills != 1 {
		t.Errorf("disk tier = %+v, want 1 load error and 1 fresh spill", st.DiskTier)
	}
}

// warmJobView mirrors JobView with a typed warm result.
type warmJobView struct {
	State  service.JobState                `json:"state"`
	Error  string                          `json:"error"`
	Result *service.WarmResult             `json:"result"`
	Stages map[string]telemetry.StageStats `json:"stages"`
}

func TestWarmEndpoint(t *testing.T) {
	e := newEnv(t, service.Options{})
	id := e.registerGraph(t)

	// Warm, then allocate with the matching tuple: the allocation must
	// start from the prebuilt sketch.
	var warm warmJobView
	e.waitJob(t, e.submit(t, "/v1/graphs/"+id+"/warm", service.WarmRequest{Budgets: []int{5, 5}}), &warm)
	if warm.State != service.JobDone {
		t.Fatalf("warm failed: %s", warm.Error)
	}
	if warm.Result.AlreadyWarm || warm.Result.Algorithm != "bundleGRD" || warm.Result.NumRRSets <= 0 {
		t.Errorf("warm result = %+v", warm.Result)
	}
	var job allocJobView
	e.waitJob(t, e.submit(t, "/v1/allocate", service.AllocateRequest{GraphID: id, Budgets: []int{5, 5}}), &job)
	if !job.Result.SketchCached {
		t.Error("allocate after warm missed the cache")
	}

	// Warming again is a cheap no-op: nothing is built, so the one
	// greedy_select span on the job is warm priming the sketch's
	// memoised selection — what makes the next allocate a prefix read.
	var warm2 warmJobView
	e.waitJob(t, e.submit(t, "/v1/graphs/"+id+"/warm", service.WarmRequest{Budgets: []int{5, 5}}), &warm2)
	if warm2.State != service.JobDone || !warm2.Result.AlreadyWarm {
		t.Errorf("second warm = %+v (%s)", warm2.Result, warm2.Error)
	}
	if st := warm2.Stages["greedy_select"]; st.Count != 1 {
		t.Errorf("already-warm job stages = %+v, want exactly one greedy_select", warm2.Stages)
	}

	// Validation: unknown graph 404s at the job layer? No — warm
	// validates synchronously like allocate: 400s.
	for path, body := range map[string]service.WarmRequest{
		"/v1/graphs/g999/warm":       {Budgets: []int{5, 5}}, // unknown graph
		"/v1/graphs/" + id + "/warm": {},                     // no budgets
		"/v1/graphs/" + id + "/wrm":  {Budgets: []int{5, 5}}, // bad route (404, checked below)
	} {
		status, _ := e.do("POST", path, body)
		want := http.StatusBadRequest
		if strings.HasSuffix(path, "/wrm") {
			want = http.StatusNotFound
		}
		if status != want {
			t.Errorf("POST %s: status %d, want %d", path, status, want)
		}
	}
	// A planner with no reusable sketch cannot be warmed.
	if status, raw := e.do("POST", "/v1/graphs/"+id+"/warm",
		service.WarmRequest{Budgets: []int{5, 5}, Algo: "bundle-disj"}); status != http.StatusBadRequest {
		t.Errorf("warm bundle-disj: status %d (%s), want 400", status, raw)
	}
}

func TestBinaryGraphPathLoading(t *testing.T) {
	// A .wmg written through the store loads over the path route and
	// keeps its probabilities (no weighted-cascade reset).
	e := newEnv(t, service.Options{AllowPathLoads: true})
	inline := registerInline(t, e)

	dir := t.TempDir()
	e2 := newEnv(t, service.Options{DataDir: dir, AllowPathLoads: true})
	registerInline(t, e2)
	matches, err := filepath.Glob(filepath.Join(dir, "graphs", "*.wmg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("persisted graphs: %v %v", matches, err)
	}

	var fromFile service.GraphInfo
	e.doJSON("POST", "/v1/graphs", service.GraphRequest{Path: matches[0]}, &fromFile, http.StatusOK)
	if fromFile.ID != inline.ID {
		t.Errorf("binary path load produced id %q, inline produced %q — content address must match", fromFile.ID, inline.ID)
	}
}

// encodeV1SketchPayload spells a PRIMA sketch the way format version 1
// did — scalars, then the collection as varint set sizes and varint
// members, no selection — so the upgrade test can lay down what an
// older daemon left in its data dir.
func encodeV1SketchPayload(t *testing.T, prefix []byte, sk *rrset.Sketch) []byte {
	t.Helper()
	if sk.Family != prima.Family || sk.Col == nil {
		t.Fatalf("want a PRIMA sketch with a collection, got family %q", sk.Family)
	}
	col := sk.Col
	out := append([]byte(nil), prefix...)
	for _, x := range []int{1, sk.K, sk.Phase1, sk.AllNodes, 1, col.Len()} { // family, scalars, presence, sets
		out = binary.AppendUvarint(out, uint64(x))
	}
	offsets := col.Offsets()
	for i := 0; i < col.Len(); i++ {
		out = binary.AppendUvarint(out, uint64(offsets[i+1]-offsets[i]))
	}
	for _, v := range col.Members() {
		out = binary.AppendUvarint(out, uint64(v))
	}
	return out
}

// TestUpgradeFromV1SketchSpills boots a daemon over a data dir written
// by a version-1 build — .wmg graphs plus v1 .wms spills. The graphs
// load; each v1 spill is a miss (not a load error) that is removed,
// rebuilt and re-spilled at the current sketch version, which the next
// lifetime serves from disk; and a v1 sketch-stream import is refused
// with a 400, not a 500.
func TestUpgradeFromV1SketchSpills(t *testing.T) {
	dir := t.TempDir()
	e1 := newEnv(t, service.Options{DataDir: dir})
	id := e1.registerGraph(t)
	req := service.AllocateRequest{GraphID: id, Budgets: []int{5, 3}, Seed: 4}
	var job allocJobView
	e1.waitJob(t, e1.submit(t, "/v1/allocate", req), &job)
	if job.State != service.JobDone {
		t.Fatalf("allocate failed: %s", job.Error)
	}
	e1.srv.Close()
	e1.svc.Close()

	// Rewrite every spill as version 1.
	disk, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	graphs := disk.LoadGraphs()
	if len(graphs) != 1 || graphs[0].ID != id {
		t.Fatalf("data dir graphs = %+v", graphs)
	}
	g := graphs[0].Graph
	spills, err := filepath.Glob(filepath.Join(dir, "sketches", "*"+store.SketchExt))
	if err != nil || len(spills) != 1 {
		t.Fatalf("spills = %v (%v), want 1", spills, err)
	}
	var v1Sketch *rrset.Sketch
	for _, path := range spills {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		v1Sketch, err = store.DecodeSketch(f, g)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var v1 bytes.Buffer
		if err := frame.Write(&v1, store.SketchMagic, 1, encodeV1SketchPayload(t, nil, v1Sketch)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2 := newEnv(t, service.Options{DataDir: dir})
	var info service.GraphInfo
	e2.doJSON("GET", "/v1/graphs/"+id, nil, &info, http.StatusOK)
	var job2 allocJobView
	e2.waitJob(t, e2.submit(t, "/v1/allocate", req), &job2)
	if job2.State != service.JobDone || job2.Result.SketchCached {
		t.Fatalf("allocate over a v1 spill: state %s, cached %v (%s), want a rebuild", job2.State, job2.Result != nil && job2.Result.SketchCached, job2.Error)
	}
	var st service.StatsResponse
	e2.doJSON("GET", "/v1/stats", nil, &st, http.StatusOK)
	if d := st.DiskTier; d == nil || d.Hits != 0 || d.LoadErrors != 0 || d.Spills != 1 {
		t.Errorf("disk tier = %+v, want no hit, no load error, one fresh spill", st.DiskTier)
	}
	for _, path := range spills {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("v1 spill not replaced: %v", err)
		}
		if v := binary.LittleEndian.Uint32(raw[8:12]); v != store.SketchVersion {
			t.Errorf("%s re-spilled at version %d, want %d", filepath.Base(path), v, store.SketchVersion)
		}
	}
	e2.srv.Close()
	e2.svc.Close()

	// The re-spilled sketch is what the next lifetime serves.
	e3 := newEnv(t, service.Options{DataDir: dir})
	var job3 allocJobView
	e3.waitJob(t, e3.submit(t, "/v1/allocate", req), &job3)
	if job3.State != service.JobDone || !job3.Result.SketchCached {
		t.Fatalf("allocate after the upgrade: state %s (%s), want a disk hit", job3.State, job3.Error)
	}
	if !slices.EqualFunc(job3.Result.Allocation.Seeds, job.Result.Allocation.Seeds, slices.Equal[[]int64]) {
		t.Errorf("allocation changed across the upgrade: %v vs %v", job3.Result.Allocation.Seeds, job.Result.Allocation.Seeds)
	}

	// A v1 sketch-stream entry is refused as a bad request.
	e4 := newEnv(t, service.Options{NodeID: "b9"})
	if id4 := e4.registerGraph(t); id4 != id {
		t.Fatalf("same network registered as %s, want %s", id4, id)
	}
	key := []byte(id + "|v1-entry")
	var stream bytes.Buffer
	entry := encodeV1SketchPayload(t, append(binary.AppendUvarint(nil, uint64(len(key))), key...), v1Sketch)
	if err := frame.Write(&stream, store.SketchStreamMagic, 1, entry); err != nil {
		t.Fatal(err)
	}
	status, raw := e4.do("POST", "/v1/graphs/"+id+"/sketches", stream.Bytes())
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "version") {
		t.Errorf("v1 sketch-stream import: status %d, body %s; want 400 naming the version", status, raw)
	}
}
