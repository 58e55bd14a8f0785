package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"uicwelfare/internal/sweep"
	"uicwelfare/internal/telemetry"
)

// jobViewReflect and jobEventReflect drop JobView's and JobEvent's
// methods, so json.Marshal encodes them by reflection: the reference
// the hand-written encoders must match byte for byte.
type (
	jobViewReflect  JobView
	jobEventReflect JobEvent
)

// awkwardStrings need escaping or fall off the ASCII fast path.
var awkwardStrings = []string{
	"", "plain-ascii_09", `quote " and \ backslash`, `say "hi"`, `C:\path`,
	"<script>&amp;</script>", "x < y", "y > x", "a & b",
	"tab\tnewline\ncr\rnul\x00bell\x07", "line\u2028para\u2029sep", "welfare ≥ σ̂ — 福利",
	"bad utf8 \xff\xfe", "del \x7f", "emoji 😀",
}

// awkwardFloats cover encoding/json's 'f'/'e' cut-offs, -0 and a
// subnormal.
var awkwardFloats = []float64{
	0.1, 123.456, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e21, -1e-7, math.Copysign(0, -1),
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -6587.498942109883,
}

func envelopeViews() map[string]JobView {
	created := "2026-01-02T03:04:05.123456789Z"
	alloc := &AllocateRequest{GraphID: "g0123456789abcdef", Budgets: []int{50, 50}, Eps: 0.5, Seed: 7, Runs: 1000}
	full := &AllocateRequest{
		GraphID: "g1", Algo: "bundleGRD", Config: "config3", Items: 3, Budgets: []int{10, 0, -1},
		Eps: 1e-7, Ell: 1e21, Cascade: "lt", Seed: math.MaxUint64, Runs: 5, Workers: 2,
	}
	result := &AllocateResult{
		Algorithm:  "bundleGRD",
		Allocation: AllocationDTO{Seeds: [][]int64{{3, 1, 4}, {1, 5}}},
		SeedOrder:  []int64{3, 1, 4, 5}, NumRRSets: 9500, TotalRRSets: 17300, IMMInvocations: 2,
		SketchCached: true,
		Welfare:      &WelfareDTO{Mean: 6587.498942109883, StdErr: 1e-6, Runs: 1000},
		ElapsedMS:    3,
	}
	stages := map[string]telemetry.StageStats{
		"greedy_select": {Count: 1, TotalMS: 0.012},
		"cache_lookup":  {Count: 2, TotalMS: 1e-7},
		"rrset_grow":    {Count: 0, TotalMS: math.Copysign(0, -1)},
		"admission<&>":  {Count: 3, TotalMS: 1e21},
	}
	resources := map[string]int64{"rr_sets_grown": 17300, "cache_hits": 1, "queue_wait_ms": -2, "zz": 0}
	views := map[string]JobView{
		"queued": {ID: "b0-j1", Kind: "allocate", State: JobQueued, Created: created, Request: alloc, TraceID: "t1"},
		"running with elapsed": {
			ID: "j2", Kind: "allocate", State: JobRunning, Created: created, ElapsedMS: 42, Request: full,
		},
		"cancel_requested": {
			ID: "j3", Kind: "allocate", State: JobRunning, Created: created, ElapsedMS: 7,
			CancelRequested: true, Request: alloc, TraceID: "t3",
		},
		"done": {
			ID: "j4", Kind: "allocate", State: JobDone, Created: created, Finished: created, ElapsedMS: 3,
			Request: alloc, Result: result, TraceID: "t4", Stages: stages, Resources: resources,
		},
		"failed": {
			ID: "j5", Kind: "allocate", State: JobFailed, Created: created, Finished: created,
			Request: alloc, Error: `unknown graph "g<1>" & more`, TraceID: "t5",
		},
		"canceled": {
			ID: "j6", Kind: "allocate", State: JobCanceled, Created: created, Finished: created, ElapsedMS: 1,
			Request: alloc, Error: "context canceled",
		},
		"estimate": {
			ID: "j7", Kind: "estimate", State: JobDone, Created: created,
			Request: &EstimateRequest{GraphID: "g", Allocation: AllocationDTO{Seeds: [][]int64{{0}, {1}}}, Runs: 10},
			Result:  &EstimateResult{Welfare: WelfareDTO{Mean: 1e20, StdErr: 5e-324, Runs: 10}, ElapsedMS: 9},
		},
		"warm": {
			ID: "j8", Kind: "warm", State: JobDone, Created: created,
			Request: &WarmRequest{Budgets: []int{10, 20}, Eps: 0.25},
			Result:  &WarmResult{Algorithm: "bundleGRD", SketchFamily: "prima", AlreadyWarm: true, NumRRSets: 12},
		},
		"fallback payloads": {
			ID: "router-j9", Kind: "sweep", State: JobCanceled, Created: created,
			Request: &sweep.Spec{GraphIDs: []string{"g<a>"}, Budgets: [][]int{{5, 5}}},
			Result:  map[string]any{"z": 1.5e-7, "a": []any{"<&>", nil, true}},
		},
		"nil slices": {
			ID: "j10", Kind: "allocate", State: JobDone, Created: created,
			Request: &AllocateRequest{GraphID: "g"},
			Result:  &AllocateResult{Algorithm: "item-disj"},
		},
		"empty slices": {
			ID: "j11", Kind: "allocate", State: JobDone, Created: created,
			Request: &AllocateRequest{GraphID: "g", Budgets: []int{}},
			Result: &AllocateResult{
				Algorithm: "item-disj", Allocation: AllocationDTO{Seeds: [][]int64{nil, {}}}, SeedOrder: []int64{},
			},
			Stages: map[string]telemetry.StageStats{}, Resources: map[string]int64{},
		},
		"empty seeds": {
			ID: "j12", Kind: "cell", State: JobDone, Created: created,
			Result: &AllocateResult{Allocation: AllocationDTO{Seeds: [][]int64{}}},
		},
		"typed nil payloads": {
			ID: "j13", Kind: "allocate", State: JobDone, Created: created,
			Request: (*AllocateRequest)(nil), Result: (*AllocateResult)(nil),
		},
		"zero": {},
	}
	for i, s := range awkwardStrings {
		views[fmt.Sprintf("string %d", i)] = JobView{
			ID: s, Kind: s, State: JobState(s), Created: s, Finished: s, Error: s, TraceID: s,
			Request:   &AllocateRequest{GraphID: s, Algo: s, Config: s, Cascade: s},
			Result:    &AllocateResult{Algorithm: s},
			Resources: map[string]int64{s: 1, s + "x": 2},
		}
	}
	for i, f := range awkwardFloats {
		views[fmt.Sprintf("float %d", i)] = JobView{
			ID: "f", Request: &AllocateRequest{Eps: f, Ell: -f},
			Result: &AllocateResult{Welfare: &WelfareDTO{Mean: f, StdErr: -f}},
			Stages: map[string]telemetry.StageStats{"s": {TotalMS: f}},
		}
	}
	return views
}

func envelopeEvents() map[string]JobEvent {
	events := map[string]JobEvent{
		"progress with seed_prefix": {
			Seq: 3, Type: EventProgress, TraceID: "t1", Stage: "select", Round: 2, Done: 16, Total: 50,
			SeedPrefix: []int64{7, 3, 9, -1},
		},
		"progress empty prefix": {Seq: 4, Type: EventProgress, Stage: "rrset_grow", Done: 256, SeedPrefix: []int64{}},
		"sweep cell": {
			Seq: 5, Type: EventProgress, TraceID: "t2", Cell: "c3", CellState: "done", CellJob: "b1-j4", Node: "b1",
		},
		"done":              {Seq: 6, Type: string(JobDone), TraceID: "t3"},
		"failed with error": {Seq: 7, Type: string(JobFailed), TraceID: "t4", Error: `bad request body: "x" <y> & z`},
		"canceled resync":   {Seq: 8, Type: string(JobCanceled), TraceID: "t5", Error: "canceled before start"},
		"zero":              {},
		"negative ints":     {Seq: -1, Type: "x", Round: -2, Done: math.MinInt, Total: math.MaxInt},
	}
	for i, s := range awkwardStrings {
		events[fmt.Sprintf("string %d", i)] = JobEvent{
			Type: s, TraceID: s, Stage: s, Cell: s, CellState: s, CellJob: s, Node: s, Error: s,
		}
	}
	return events
}

// TestEnvelopeMatchesEncodingJSON pins the warm envelope: every JobView
// state, every payload type the service stores, nil beside empty
// slices, the five JobEvent shapes, strings that need escaping and
// floats at encoding/json's format boundaries all encode exactly as
// encoding/json encodes the same values by reflection — through
// appendJSON, through MarshalJSON, and as writeJSON's body.
func TestEnvelopeMatchesEncodingJSON(t *testing.T) {
	for name, v := range envelopeViews() {
		want, err := json.Marshal(jobViewReflect(v))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := v.appendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("JobView %s:\n got %s (err %v)\nwant %s", name, got, err, want)
		}
		if viaMarshal, err := json.Marshal(v); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Errorf("JobView %s via MarshalJSON:\n got %s (err %v)\nwant %s", name, viaMarshal, err, want)
		}
		ref, enc := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(ref, 200, jobViewReflect(v))
		writeEncoded(enc, 200, v.appendJSON)
		if !bytes.Equal(enc.Body.Bytes(), ref.Body.Bytes()) || enc.Header().Get("Content-Type") != "application/json" {
			t.Errorf("JobView %s: writeEncoded body %q, writeJSON body %q", name, enc.Body, ref.Body)
		}
	}
	for name, ev := range envelopeEvents() {
		want, err := json.Marshal(jobEventReflect(ev))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got := ev.appendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("JobEvent %s:\n got %s\nwant %s", name, got, want)
		}
		if viaMarshal, err := json.Marshal(ev); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Errorf("JobEvent %s via MarshalJSON:\n got %s (err %v)\nwant %s", name, viaMarshal, err, want)
		}
		var frame bytes.Buffer
		writeSSEFrame(&frame, ev.Type, ev.appendJSON(nil))
		if wantFrame := fmt.Sprintf("event: %s\ndata: %s\n\n", ev.Type, want); frame.String() != wantFrame {
			t.Errorf("JobEvent %s: SSE frame %q, want %q", name, frame.String(), wantFrame)
		}
	}
	for _, s := range awkwardStrings {
		want, _ := json.Marshal(map[string]string{"job_id": s, "state": string(JobQueued), "trace_id": s + "t"})
		if got := appendAccepted(nil, s, s+"t"); !bytes.Equal(got, want) {
			t.Errorf("202 body for %q:\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestEnvelopeRejectsNonFiniteFloats: NaN and ±Inf have no JSON form;
// the hand encoder refuses them wherever encoding/json does.
func TestEnvelopeRejectsNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, v := range map[string]JobView{
			"eps":      {Request: &AllocateRequest{Eps: f}},
			"welfare":  {Result: &AllocateResult{Welfare: &WelfareDTO{StdErr: f}}},
			"stage":    {Stages: map[string]telemetry.StageStats{"s": {TotalMS: f}}},
			"estimate": {Result: &EstimateResult{Welfare: WelfareDTO{Mean: f}}},
		} {
			if _, err := json.Marshal(jobViewReflect(v)); err == nil {
				t.Fatalf("%s %v: reference encoded a non-finite float", name, f)
			}
			if _, err := v.appendJSON(nil); err == nil {
				t.Errorf("%s %v: appendJSON encoded a non-finite float", name, f)
			}
			rec := httptest.NewRecorder()
			writeEncoded(rec, 200, v.appendJSON)
			if rec.Code != 500 {
				t.Errorf("%s %v: writeEncoded answered %d, want 500", name, f, rec.Code)
			}
		}
	}
}

// FuzzAppendJobEvent: any strings and ints in an event encode exactly
// as encoding/json encodes them.
func FuzzAppendJobEvent(f *testing.F) {
	f.Add(1, 2, 3, 4, "progress", "trace", "select", "c0", `err "x" <y>`, []byte{1, 2, 3})
	f.Add(0, 0, 0, 0, "", "", "", "", "", []byte(nil))
	f.Add(-9, 1<<40, -1, 7, "done\u2028", "t\xff", "\x00", "福利", "&amp;", []byte{0xff})
	f.Fuzz(func(t *testing.T, seq, round, done, total int, typ, trace, stage, cell, errMsg string, prefix []byte) {
		ev := JobEvent{
			Seq: seq, Type: typ, TraceID: trace, Stage: stage, Round: round, Done: done, Total: total,
			Cell: cell, CellState: stage + cell, CellJob: trace + typ, Node: errMsg + cell, Error: errMsg,
		}
		for i, c := range prefix {
			ev.SeedPrefix = append(ev.SeedPrefix, int64(int8(c))<<(i%60))
		}
		want, err := json.Marshal(jobEventReflect(ev))
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.appendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("got  %s\nwant %s", got, want)
		}
	})
}
