package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// listIDs returns the ids of s.List(""), in listing order.
func listIDs(s *JobStore) []string {
	var ids []string
	for _, v := range s.List("") {
		ids = append(ids, v.ID)
	}
	return ids
}

// TestJobStoreRetainsInFinishOrder: retention evicts the job that
// finished longest ago, not the one created first; it never drops queued
// or running jobs; listings stay in insertion order without trimmed or
// removed ids; and a removed terminal job no longer counts toward the
// bound.
func TestJobStoreRetainsInFinishOrder(t *testing.T) {
	s := NewJobStore(2)
	finish := func(id string) {
		s.Start(id)
		s.Finish(id, nil, nil)
	}
	present := func(id string) bool {
		_, ok := s.Snapshot(id)
		return ok
	}

	long := s.Create("allocate", "", nil) // created first, finished last
	s.Start(long.ID)
	queued := s.Create("allocate", "", nil)
	running := s.Create("allocate", "", nil)
	s.Start(running.ID)
	var short []string
	for range 3 {
		j := s.Create("allocate", "", nil)
		finish(j.ID)
		short = append(short, j.ID)
	}
	s.Finish(long.ID, nil, nil)

	if !present(long.ID) {
		t.Fatalf("job %s finished last but was evicted", long.ID)
	}
	for _, id := range short[:2] {
		if present(id) {
			t.Errorf("job %s finished early but survived", id)
		}
	}
	if counts := s.CountByState(); counts[JobDone] != 2 || counts[JobQueued] != 1 || counts[JobRunning] != 1 {
		t.Errorf("counts = %v, want 2 done, 1 queued, 1 running", counts)
	}
	if got, want := listIDs(s), []string{long.ID, queued.ID, running.ID, short[2]}; !slices.Equal(got, want) {
		t.Errorf("list = %v, want %v", got, want)
	}

	// Removing a terminal job frees its slot: the next finish trims nothing.
	s.Remove(short[2])
	if got, want := listIDs(s), []string{long.ID, queued.ID, running.ID}; !slices.Equal(got, want) {
		t.Errorf("list after remove = %v, want %v", got, want)
	}
	e := s.Create("allocate", "", nil)
	finish(e.ID)
	if !present(long.ID) || !present(e.ID) {
		t.Fatalf("a finish after a remove trimmed one job too many: %v", listIDs(s))
	}

	// The next finish evicts the earliest-finished survivor, skipping the
	// removed job's place in the finish order.
	f := s.Create("allocate", "", nil)
	finish(f.ID)
	if got, want := listIDs(s), []string{queued.ID, running.ID, e.ID, f.ID}; !slices.Equal(got, want) {
		t.Errorf("list = %v, want %v", got, want)
	}
	if counts := s.CountByState(); counts[JobDone] != 2 {
		t.Errorf("retained %d finished jobs, want 2", counts[JobDone])
	}
}

// flushCounter is a ResponseRecorder that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestJobEventsReplayFlushesOnce: a finished job's event stream is its
// frames, byte for byte and in seq order, written without a flush per
// frame.
func TestJobEventsReplayFlushesOnce(t *testing.T) {
	svc, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j := svc.jobs.Create("allocate", "t1", nil)
	svc.jobs.Start(j.ID)
	prefix := []int64{3, 7, 1, 9}
	for i := 1; i <= len(prefix); i++ {
		svc.jobs.Publish(j.ID, JobEvent{Type: EventProgress, Stage: "select", Round: i, Done: i, Total: len(prefix), SeedPrefix: prefix[:i]})
	}
	svc.jobs.Finish(j.ID, "ok", nil)

	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/events", nil))
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "text/event-stream" {
		t.Fatalf("status %d, content-type %q", w.Code, w.Header().Get("Content-Type"))
	}
	want := "event: progress\ndata: {\"seq\":1,\"type\":\"progress\",\"trace_id\":\"t1\",\"stage\":\"select\",\"round\":1,\"done\":1,\"total\":4,\"seed_prefix\":[3]}\n\n" +
		"event: progress\ndata: {\"seq\":2,\"type\":\"progress\",\"trace_id\":\"t1\",\"stage\":\"select\",\"round\":2,\"done\":2,\"total\":4,\"seed_prefix\":[3,7]}\n\n" +
		"event: progress\ndata: {\"seq\":3,\"type\":\"progress\",\"trace_id\":\"t1\",\"stage\":\"select\",\"round\":3,\"done\":3,\"total\":4,\"seed_prefix\":[3,7,1]}\n\n" +
		"event: progress\ndata: {\"seq\":4,\"type\":\"progress\",\"trace_id\":\"t1\",\"stage\":\"select\",\"round\":4,\"done\":4,\"total\":4,\"seed_prefix\":[3,7,1,9]}\n\n" +
		"event: done\ndata: {\"seq\":5,\"type\":\"done\",\"trace_id\":\"t1\"}\n\n"
	if got := w.Body.String(); got != want {
		t.Errorf("body:\n%s\nwant:\n%s", got, want)
	}
	if w.flushes > 1 {
		t.Errorf("replay of %d frames flushed %d times, want at most 1", len(prefix)+1, w.flushes)
	}
}

// BenchmarkJobStoreFinish times one job's Create → Start → Finish on a
// store already holding retain finished jobs, so every Finish trims one.
func BenchmarkJobStoreFinish(b *testing.B) {
	for _, retain := range []int{16, 1024, 8192} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			s := NewJobStore(retain)
			cycle := func() {
				j := s.Create("allocate", "", nil)
				s.Start(j.ID)
				s.Finish(j.ID, nil, nil)
			}
			for range retain {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				cycle()
			}
		})
	}
}
