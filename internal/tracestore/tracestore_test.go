package tracestore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uicwelfare/internal/telemetry"
)

func memStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestTailSamplingKeepReasons(t *testing.T) {
	s := memStore(t, Options{Node: "b0", SampleRate: -1}) // keep nothing fast
	cases := []struct {
		rec  Record
		kept bool
		why  string
	}{
		{Record{TraceID: "t-err", Error: "boom"}, true, KeptError},
		{Record{TraceID: "t-slow", Slow: true}, true, KeptSlow},
		{Record{TraceID: "t-q", Queued: true}, true, KeptQueued},
		{Record{TraceID: "t-fast"}, false, ""},
	}
	for _, c := range cases {
		if got := s.Add(c.rec); got != c.kept {
			t.Errorf("Add(%s) kept = %v, want %v", c.rec.TraceID, got, c.kept)
		}
		if !c.kept {
			continue
		}
		rec, ok := s.Get(c.rec.TraceID)
		if !ok {
			t.Fatalf("kept trace %s not retrievable", c.rec.TraceID)
		}
		if rec.Kept != c.why {
			t.Errorf("%s: kept reason %q, want %q", c.rec.TraceID, rec.Kept, c.why)
		}
		if rec.Node != "b0" {
			t.Errorf("%s: node %q, want stamped b0", c.rec.TraceID, rec.Node)
		}
	}
	st := s.Stats()
	if st.Offered != 4 || st.Kept != 3 || st.SampledOut != 1 {
		t.Errorf("stats = %+v, want offered 4 kept 3 sampled_out 1", st)
	}
	// An error always wins the keep-reason precedence, even when slow.
	s.Add(Record{TraceID: "t-both", Error: "x", Slow: true})
	if rec, _ := s.Get("t-both"); rec.Kept != KeptError {
		t.Errorf("error+slow kept as %q, want %q", rec.Kept, KeptError)
	}
}

func TestSampleAllOverridesRate(t *testing.T) {
	s := memStore(t, Options{SampleAll: true}) // zero SampleRate would keep none
	for i := 0; i < 20; i++ {
		if !s.Add(Record{TraceID: fmt.Sprintf("t%d", i)}) {
			t.Fatal("SampleAll store dropped a fast trace")
		}
	}
	if got := s.Stats().SampledOut; got != 0 {
		t.Errorf("sampled_out = %d, want 0", got)
	}
}

func TestRingEvictionAndCursorPagination(t *testing.T) {
	s := memStore(t, Options{RingSize: 8, SampleAll: true})
	for i := 1; i <= 12; i++ {
		s.Add(Record{TraceID: fmt.Sprintf("t%d", i), Route: "allocate"})
	}
	// Ring keeps the newest 8: seqs 5..12.
	if _, ok := s.Get("t4"); ok {
		t.Error("evicted trace t4 still retrievable from a spill-less store")
	}
	page1, next := s.Traces(Query{Limit: 5})
	if len(page1) != 5 || page1[0].Seq != 5 || next != 9 {
		t.Fatalf("page1: %d records, first seq %d, next %d; want 5, 5, 9", len(page1), page1[0].Seq, next)
	}
	page2, next2 := s.Traces(Query{After: next, Limit: 5})
	if len(page2) != 3 || page2[0].Seq != 10 || next2 != 12 {
		t.Fatalf("page2: %d records, next %d; want 3 records ending the ring at 12", len(page2), next2)
	}
	if page3, next3 := s.Traces(Query{After: next2}); len(page3) != 0 || next3 != next2 {
		t.Errorf("exhausted cursor returned %d records, next %d", len(page3), next3)
	}
	// Summaries strip spans.
	s.Add(Record{TraceID: "sp", Spans: []telemetry.Span{{ID: "a", Stage: "greedy_select"}}})
	recs, _ := s.Traces(Query{After: 12})
	if len(recs) != 1 || recs[0].Spans != nil {
		t.Errorf("Traces leaked span records: %+v", recs)
	}
	if full, ok := s.Get("sp"); !ok || len(full.Spans) != 1 {
		t.Errorf("Get dropped span records: %+v", full)
	}
}

func TestQueryFilters(t *testing.T) {
	s := memStore(t, Options{SampleAll: true})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s.Add(Record{TraceID: "a", Route: "allocate", Graph: "g1", Start: base, DurationMS: 5})
	s.Add(Record{TraceID: "b", Route: "warm", Graph: "g1", Start: base.Add(time.Minute), DurationMS: 80})
	s.Add(Record{TraceID: "c", Route: "allocate", Graph: "g2", Start: base.Add(2 * time.Minute), DurationMS: 200})
	check := func(q Query, want ...string) {
		t.Helper()
		recs, _ := s.Traces(q)
		var got []string
		for _, r := range recs {
			got = append(got, r.TraceID)
		}
		if len(got) != len(want) {
			t.Fatalf("query %+v returned %v, want %v", q, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %+v returned %v, want %v", q, got, want)
			}
		}
	}
	check(Query{Route: "allocate"}, "a", "c")
	check(Query{Graph: "g1"}, "a", "b")
	check(Query{MinMS: 50}, "b", "c")
	check(Query{Since: base.Add(90 * time.Second)}, "c")
	check(Query{Route: "allocate", MinMS: 50}, "c")
	// The cursor advances past filtered records too, so pagination never
	// re-examines the ring prefix.
	if _, next := s.Traces(Query{Route: "nope"}); next != 3 {
		t.Errorf("filtered-out query left cursor at %d, want 3", next)
	}
}

func TestSpillRoundtripAndDiskGet(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{
		Node: "b0", RingSize: 4, SampleAll: true,
		Dir: dir, FlushInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		s.Add(Record{
			TraceID:    fmt.Sprintf("t%d", i),
			Route:      "allocate",
			DurationMS: float64(i),
			Spans:      []telemetry.Span{{ID: fmt.Sprintf("s%d", i), Stage: "greedy_select", DurationMS: 1}},
			Resources:  map[string]int64{"rrsets_grown": int64(i)},
		})
	}
	s.Close() // flushes the pending segment

	// t1 aged out of the 4-slot ring but must come back from disk, spans
	// and resources intact.
	rec, ok := s.Get("t1")
	if !ok {
		t.Fatal("spilled trace t1 not found on disk")
	}
	if rec.Seq != 1 || len(rec.Spans) != 1 || rec.Spans[0].ID != "s1" || rec.Resources["rrsets_grown"] != 1 {
		t.Errorf("disk record mangled: %+v", rec)
	}

	// The segment itself reads back whole and in order.
	names, err := filepath.Glob(filepath.Join(dir, "*"+SegmentExt))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments spilled: %v %v", names, err)
	}
	var total int
	for _, name := range names {
		recs, err := ReadSegment(name)
		if err != nil {
			t.Fatalf("ReadSegment(%s): %v", name, err)
		}
		total += len(recs)
	}
	if total != 10 {
		t.Errorf("segments hold %d records, want 10", total)
	}

	// Corruption is detected, not silently decoded.
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a checksum bit
	bad := filepath.Join(dir, "corrupt"+SegmentExt)
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(bad); err == nil {
		t.Error("corrupt segment decoded without error")
	}
}

func TestSegmentByteBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{
		SampleAll: true, Dir: dir,
		SegmentBytes: 512, MaxBytes: 2048,
		FlushInterval: time.Hour, // only size-triggered seals
	})
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 256)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < 64; i++ {
		s.Add(Record{TraceID: fmt.Sprintf("t%d", i), Route: string(pad)})
	}
	s.Close()
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
	}
	// Budget plus at most one segment of slack (enforcement runs after
	// each seal).
	if total > 2048+1024 {
		t.Errorf("trace dir holds %d bytes, budget 2048", total)
	}
	if s.Stats().Segments < 2 {
		t.Errorf("expected multiple sealed segments, got %d", s.Stats().Segments)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if s.Add(Record{TraceID: "x"}) {
		t.Error("nil store kept a record")
	}
	if recs, next := s.Traces(Query{After: 7}); recs != nil || next != 7 {
		t.Error("nil store returned records")
	}
	if _, ok := s.Get("x"); ok {
		t.Error("nil store resolved a trace")
	}
	if s.LastSeq() != 0 || s.Stats() != (Stats{}) {
		t.Error("nil store reported state")
	}
	s.Close()
}

// TestRestartKeepsEarlierSegments boots a store twice over one
// directory: the second boot must continue the first one's sequence so
// its segments never replace the first's, and a boot-1 trace must stay
// retrievable by id after boot 2 has sealed a segment of its own.
func TestRestartKeepsEarlierSegments(t *testing.T) {
	dir := t.TempDir()
	boot := func(prefix string) *Store {
		s, err := New(Options{Node: "b0", SampleAll: true, Dir: dir, FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			s.Add(Record{TraceID: fmt.Sprintf("%s-t%d", prefix, i), Route: "allocate"})
		}
		s.Close()
		return s
	}
	boot("boot1")
	s2 := boot("boot2")
	if got := s2.LastSeq(); got != 6 {
		t.Fatalf("boot 2 ended at seq %d, want 6 (3 per boot)", got)
	}
	if s2.Stats().Segments != 1 {
		t.Fatalf("boot 2 sealed %d segments, want 1", s2.Stats().Segments)
	}
	for _, id := range []string{"boot1-t1", "boot1-t3", "boot2-t2"} {
		if rec, ok := s2.Get(id); !ok || rec.TraceID != id {
			t.Errorf("Get(%s) after two boots = %+v, %v", id, rec, ok)
		}
	}

	names, _ := filepath.Glob(filepath.Join(dir, "*"+SegmentExt))
	var lastSeq uint64
	total := 0
	for _, name := range names { // Glob sorts: name order must be time order
		recs, err := ReadSegment(name)
		if err != nil {
			t.Fatalf("ReadSegment(%s): %v", name, err)
		}
		for _, r := range recs {
			if r.Seq <= lastSeq {
				t.Fatalf("seq %d after %d: not strictly increasing across boots", r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			total++
		}
	}
	if total != 6 {
		t.Fatalf("%d records on disk after two boots, want 6 (segments %v)", total, names)
	}

	// A corrupt newest segment does not stop the next boot.
	if err := os.WriteFile(names[len(names)-1], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s3 := boot("boot3"); s3.LastSeq() != 6 {
		t.Fatalf("boot 3 over a corrupt newest segment ended at seq %d, want 6 (resumed after boot 1's 3)", s3.LastSeq())
	}
}
