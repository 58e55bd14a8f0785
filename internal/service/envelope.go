package service

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"uicwelfare/internal/telemetry"
)

// The warm envelope. A warm allocation is microseconds of planning
// wrapped in three HTTP bodies — the 202 {"job_id","state","trace_id"}
// answer, the job's SSE frames and the GET /v1/jobs/{id} JobView — so
// those three are encoded here by hand instead of by reflection. Every
// encoder writes exactly the bytes encoding/json's compact output
// would: HTML-escaped strings, omitempty as declared on the struct
// tags, map keys in sorted order and its float format.
// TestEnvelopeMatchesEncodingJSON pins that against json.Marshal of
// method-less copies of the types. Payloads other than
// *AllocateRequest and *AllocateResult, and any string that is not
// plain printable ASCII, go through json.Marshal itself.

// bodyBufs pools the buffers envelope bodies and SSE frames are built
// in, so each goes out in one Write without a per-body allocation.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// maxPooledBody bounds the buffers returned to bodyBufs: the rare huge
// body (a sweep summary, a long seed order) is left to the GC instead
// of pinning its buffer in the pool.
const maxPooledBody = 64 << 10

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyBufs.Put(bp)
	}
}

// writeEncoded answers status with the JSON body enc appends, plus
// writeJSON's trailing newline, built in a pooled buffer and sent in
// one Write. An encoding error (a NaN or infinite float) answers 500.
func writeEncoded(w http.ResponseWriter, status int, enc func([]byte) ([]byte, error)) {
	bp := bodyBufs.Get().(*[]byte)
	defer putBody(bp)
	b, err := enc((*bp)[:0])
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	*bp = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(*bp)
}

// writeSSEFrame writes one "event:/data:" frame in one Write; false
// means the stream is over (the client went away). It does not flush:
// a replay goes out in one flush, live frames in one each.
func writeSSEFrame(w io.Writer, event string, data []byte) bool {
	bp := bodyBufs.Get().(*[]byte)
	defer putBody(bp)
	b := append((*bp)[:0], "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	b = append(b, "\n\n"...)
	*bp = b
	_, err := w.Write(b)
	return err == nil
}

// appendAccepted appends the 202 body of an enqueued job.
func appendAccepted(b []byte, jobID, traceID string) []byte {
	b = append(b, `{"job_id":`...)
	b = appendString(b, jobID)
	b = append(b, `,"state":`...)
	b = appendString(b, string(JobQueued))
	b = append(b, `,"trace_id":`...)
	b = appendString(b, traceID)
	return append(b, '}')
}

// MarshalJSON encodes the event with the warm-envelope encoder.
func (e JobEvent) MarshalJSON() ([]byte, error) { return e.appendJSON(nil), nil }

// appendJSON appends the event's JSON object.
func (e JobEvent) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	b = append(b, `,"type":`...)
	b = appendString(b, e.Type)
	b = appendOptString(b, `,"trace_id":`, e.TraceID)
	b = appendOptString(b, `,"stage":`, e.Stage)
	b = appendOptInt(b, `,"round":`, int64(e.Round))
	b = appendOptInt(b, `,"done":`, int64(e.Done))
	b = appendOptInt(b, `,"total":`, int64(e.Total))
	if len(e.SeedPrefix) > 0 {
		b = append(b, `,"seed_prefix":`...)
		b = appendInts(b, e.SeedPrefix)
	}
	b = appendOptString(b, `,"cell":`, e.Cell)
	b = appendOptString(b, `,"cell_state":`, e.CellState)
	b = appendOptString(b, `,"cell_job":`, e.CellJob)
	b = appendOptString(b, `,"node":`, e.Node)
	b = appendOptString(b, `,"error":`, e.Error)
	return append(b, '}')
}

// MarshalJSON encodes the view with the warm-envelope encoder, so the
// job list, DELETE answers and the history.jsonl audit line share it.
func (v JobView) MarshalJSON() ([]byte, error) { return v.appendJSON(nil) }

// appendJSON appends the view's JSON object.
func (v JobView) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = appendString(b, v.ID)
	b = append(b, `,"kind":`...)
	b = appendString(b, v.Kind)
	b = append(b, `,"state":`...)
	b = appendString(b, string(v.State))
	b = append(b, `,"created":`...)
	b = appendString(b, v.Created)
	b = appendOptString(b, `,"finished":`, v.Finished)
	b = appendOptInt(b, `,"elapsed_ms":`, v.ElapsedMS)
	if v.CancelRequested {
		b = append(b, `,"cancel_requested":true`...)
	}
	var err error
	if v.Request != nil {
		b = append(b, `,"request":`...)
		if b, err = appendPayload(b, v.Request); err != nil {
			return b, err
		}
	}
	if v.Result != nil {
		b = append(b, `,"result":`...)
		if b, err = appendPayload(b, v.Result); err != nil {
			return b, err
		}
	}
	b = appendOptString(b, `,"error":`, v.Error)
	b = appendOptString(b, `,"trace_id":`, v.TraceID)
	if len(v.Stages) > 0 {
		b = append(b, `,"stages":`...)
		if b, err = appendMap(b, v.Stages, appendStage); err != nil {
			return b, err
		}
	}
	if len(v.Resources) > 0 {
		b = append(b, `,"resources":`...)
		b, _ = appendMap(b, v.Resources, func(b []byte, n int64) ([]byte, error) {
			return strconv.AppendInt(b, n, 10), nil
		})
	}
	return append(b, '}'), nil
}

// appendPayload appends a job's request or result: the allocate types
// by hand, anything else through json.Marshal.
func appendPayload(b []byte, p any) ([]byte, error) {
	switch p := p.(type) {
	case *AllocateRequest:
		if p != nil {
			return p.appendJSON(b)
		}
	case *AllocateResult:
		if p != nil {
			return p.appendJSON(b)
		}
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return b, err
	}
	return append(b, raw...), nil
}

func (r *AllocateRequest) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"graph_id":`...)
	b = appendString(b, r.GraphID)
	b = appendOptString(b, `,"algo":`, r.Algo)
	b = appendOptString(b, `,"config":`, r.Config)
	b = appendOptInt(b, `,"items":`, int64(r.Items))
	b = append(b, `,"budgets":`...)
	b = appendInts(b, r.Budgets)
	var err error
	if r.Eps != 0 {
		b = append(b, `,"eps":`...)
		if b, err = appendFloat(b, r.Eps); err != nil {
			return b, err
		}
	}
	if r.Ell != 0 {
		b = append(b, `,"ell":`...)
		if b, err = appendFloat(b, r.Ell); err != nil {
			return b, err
		}
	}
	b = appendOptString(b, `,"cascade":`, r.Cascade)
	if r.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendUint(b, r.Seed, 10)
	}
	b = appendOptInt(b, `,"runs":`, int64(r.Runs))
	b = appendOptInt(b, `,"workers":`, int64(r.Workers))
	return append(b, '}'), nil
}

func (r *AllocateResult) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"algorithm":`...)
	b = appendString(b, r.Algorithm)
	b = append(b, `,"allocation":{"seeds":`...)
	if r.Allocation.Seeds == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, seeds := range r.Allocation.Seeds {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInts(b, seeds)
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	if len(r.SeedOrder) > 0 {
		b = append(b, `,"seed_order":`...)
		b = appendInts(b, r.SeedOrder)
	}
	b = append(b, `,"num_rr_sets":`...)
	b = strconv.AppendInt(b, int64(r.NumRRSets), 10)
	b = append(b, `,"total_rr_sets":`...)
	b = strconv.AppendInt(b, int64(r.TotalRRSets), 10)
	b = append(b, `,"imm_invocations":`...)
	b = strconv.AppendInt(b, int64(r.IMMInvocations), 10)
	b = append(b, `,"sketch_cached":`...)
	b = strconv.AppendBool(b, r.SketchCached)
	if wf := r.Welfare; wf != nil {
		var err error
		b = append(b, `,"welfare":{"mean":`...)
		if b, err = appendFloat(b, wf.Mean); err != nil {
			return b, err
		}
		b = append(b, `,"stderr":`...)
		if b, err = appendFloat(b, wf.StdErr); err != nil {
			return b, err
		}
		b = append(b, `,"runs":`...)
		b = strconv.AppendInt(b, int64(wf.Runs), 10)
		b = append(b, '}')
	}
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendInt(b, r.ElapsedMS, 10)
	return append(b, '}'), nil
}

func appendStage(b []byte, s telemetry.StageStats) ([]byte, error) {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(s.Count), 10)
	b = append(b, `,"total_ms":`...)
	b, err := appendFloat(b, s.TotalMS)
	return append(b, '}'), err
}

// appendMap appends m as a JSON object with its keys in sorted order,
// as encoding/json orders string-keyed maps.
func appendMap[V any](b []byte, m map[string]V, appendValue func([]byte, V) ([]byte, error)) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = appendValue(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendOptString appends key and s unless s is empty (omitempty).
func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendOptInt appends key and n unless n is zero (omitempty).
func appendOptInt(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

// appendInts appends s as a JSON array; nil is null.
func appendInts[T int | int64](b []byte, s []T) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. Printable ASCII other than
// `"`, `\`, `<`, `>` and `&` is copied as is; a string holding any
// other byte goes through json.Marshal, which escapes it (control
// bytes, HTML characters, U+2028/U+2029, invalid UTF-8) as the
// reference does.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 in magnitude,
// with a two-digit negative exponent cut to one ("1e-07" → "1e-7").
// NaN and ±Inf have no JSON form and are an error, as in json.Marshal.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
