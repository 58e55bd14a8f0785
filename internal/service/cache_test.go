package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestSketchKeyCanonicalization(t *testing.T) {
	a := SketchKey("g1", "prima", 0, 0.5, 1, []int{50, 30})
	b := SketchKey("g1", "prima", 0, 0.5, 1, []int{50, 30})
	if a != b {
		t.Errorf("identical inputs differ: %q vs %q", a, b)
	}
	for _, other := range []string{
		SketchKey("g2", "prima", 0, 0.5, 1, []int{50, 30}),
		SketchKey("g1", "imm", 0, 0.5, 1, []int{50, 30}),
		SketchKey("g1", "prima", 1, 0.5, 1, []int{50, 30}),
		SketchKey("g1", "prima", 0, 0.1, 1, []int{50, 30}),
		SketchKey("g1", "prima", 0, 0.5, 2, []int{50, 30}),
		SketchKey("g1", "prima", 0, 0.5, 1, []int{50}),
	} {
		if other == a {
			t.Errorf("distinct tuple collides: %q", other)
		}
	}
}

func TestPoolBoundedQueue(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if !p.Submit(func() { close(started); <-block }) {
		t.Fatal("first submit rejected")
	}
	<-started // worker busy; queue empty
	if !p.Submit(func() {}) {
		t.Fatal("second submit rejected with empty queue")
	}
	// Worker occupied and queue full: reject instead of blocking.
	if p.Submit(func() {}) {
		t.Error("third submit accepted beyond capacity")
	}
	if p.Busy() != 1 || p.QueueDepth() != 1 || p.QueueCap() != 1 || p.Workers() != 1 {
		t.Errorf("pool state: busy=%d depth=%d cap=%d workers=%d",
			p.Busy(), p.QueueDepth(), p.QueueCap(), p.Workers())
	}
	close(block)
	p.Close()
	if p.Submit(func() {}) {
		t.Error("submit accepted after Close")
	}
}

func TestJobStoreLifecycle(t *testing.T) {
	s := NewJobStore(0)
	j := s.Create("allocate", "trace-1", "req")
	if view, ok := s.Snapshot(j.ID); !ok || view.State != JobQueued {
		t.Fatalf("snapshot = %+v, %v", view, ok)
	}
	s.Start(j.ID)
	s.Finish(j.ID, "result", nil)
	view, _ := s.Snapshot(j.ID)
	if view.State != JobDone || view.Result != "result" {
		t.Errorf("done view = %+v", view)
	}

	f := s.Create("estimate", "", nil)
	s.Start(f.ID)
	s.Finish(f.ID, nil, errors.New("nope"))
	if view, _ := s.Snapshot(f.ID); view.State != JobFailed || view.Error != "nope" {
		t.Errorf("failed view = %+v", view)
	}

	counts := s.CountByState()
	if counts[JobDone] != 1 || counts[JobFailed] != 1 {
		t.Errorf("counts = %v", counts)
	}

	r := s.Create("allocate", "", nil)
	s.Remove(r.ID)
	if _, ok := s.Snapshot(r.ID); ok {
		t.Error("removed job still present")
	}
	if len(s.List("")) != 2 {
		t.Errorf("list = %+v", s.List(""))
	}
}

// TestJobStoreCanceledKeepsResult: a canceled job keeps a real result
// (a canceled sweep's summary) but not the nil pointer a worker's typed
// result becomes when its run returned nothing — that must stay absent
// from the wire view, not turn into "result": null.
func TestJobStoreCanceledKeepsResult(t *testing.T) {
	s := NewJobStore(0)
	cancelWith := func(result any) JobView {
		j := s.Create("sweep", "", nil)
		s.Start(j.ID)
		s.Cancel(j.ID)
		s.Finish(j.ID, result, context.Canceled)
		view, _ := s.Snapshot(j.ID)
		if view.State != JobCanceled {
			t.Fatalf("state %s, want canceled", view.State)
		}
		return view
	}
	if view := cancelWith(&AllocateResult{Algorithm: "x"}); view.Result == nil {
		t.Error("canceled job dropped its result")
	}
	for _, nothing := range []any{nil, (*AllocateResult)(nil)} {
		view := cancelWith(nothing)
		raw, err := json.Marshal(view)
		if err != nil || view.Result != nil || strings.Contains(string(raw), `"result"`) {
			t.Errorf("canceled job with %#v: result %#v, wire %s (%v)", nothing, view.Result, raw, err)
		}
	}
}

func TestJobStoreRetention(t *testing.T) {
	s := NewJobStore(2)
	running := s.Create("allocate", "", nil)
	s.Start(running.ID)
	var finished []string
	for i := 0; i < 5; i++ {
		j := s.Create("allocate", "", nil)
		s.Start(j.ID)
		s.Finish(j.ID, i, nil)
		finished = append(finished, j.ID)
	}
	counts := s.CountByState()
	if counts[JobDone] != 2 {
		t.Errorf("retained %d finished jobs, want 2", counts[JobDone])
	}
	// Oldest finished jobs are gone; the newest two and the running job
	// survive.
	if _, ok := s.Snapshot(finished[0]); ok {
		t.Error("oldest finished job survived retention")
	}
	for _, id := range finished[3:] {
		if _, ok := s.Snapshot(id); !ok {
			t.Errorf("recent job %s was dropped", id)
		}
	}
	if view, ok := s.Snapshot(running.ID); !ok || view.State != JobRunning {
		t.Error("running job was dropped by retention")
	}
}

// checkReplay asserts a Subscribe replay is ordered (strictly increasing
// seq) and returns it.
func checkReplay(t *testing.T, s *JobStore, id string) []JobEvent {
	t.Helper()
	past, _, unsub, ok := s.Subscribe(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	unsub()
	for i := 1; i < len(past); i++ {
		if past[i].Seq <= past[i-1].Seq {
			t.Fatalf("replay out of order at %d: seq %d after %d", i, past[i].Seq, past[i-1].Seq)
		}
	}
	return past
}

// TestJobEventHistoryRingAndCompaction: a running job's history is a
// ring of the newest maxJobEvents events; once terminal it shrinks to
// the last few stage ticks plus the terminal frame, while a sweep job
// keeps every cell event.
func TestJobEventHistoryRingAndCompaction(t *testing.T) {
	s := NewJobStore(0)
	j := s.Create("allocate", "trace-1", nil)
	s.Start(j.ID)
	const published = maxJobEvents + 44
	for i := 1; i <= published; i++ {
		s.Publish(j.ID, JobEvent{Type: EventProgress, Stage: "sketch", Done: i, Total: published})
	}
	past := checkReplay(t, s, j.ID)
	if len(past) != maxJobEvents || past[0].Seq != published-maxJobEvents+1 || past[len(past)-1].Seq != published {
		t.Fatalf("running replay: %d events, seq %d..%d; want the newest %d ending at %d",
			len(past), past[0].Seq, past[len(past)-1].Seq, maxJobEvents, published)
	}

	s.Finish(j.ID, "result", nil)
	past = checkReplay(t, s, j.ID)
	if len(past) != finishedJobTicks+1 {
		t.Fatalf("finished replay has %d events, want %d ticks + terminal", len(past), finishedJobTicks)
	}
	last := past[len(past)-1]
	if last.Type != string(JobDone) || last.Seq != published+1 || last.TraceID != "trace-1" {
		t.Fatalf("finished replay ends with %+v, want the done frame", last)
	}
	if past[len(past)-2].Done != published {
		t.Errorf("kept ticks are not the newest: last tick %+v", past[len(past)-2])
	}

	// A sweep: many stage ticks around a few cell events.
	sw := s.Create("sweep", "", nil)
	s.Start(sw.ID)
	for c := 0; c < 5; c++ {
		s.Publish(sw.ID, JobEvent{Type: EventProgress, Stage: "cell", Cell: fmt.Sprintf("c%d", c), CellState: string(JobRunning)})
		for i := 0; i < 20; i++ {
			s.Publish(sw.ID, JobEvent{Type: EventProgress, Stage: "sketch", Done: i})
		}
		s.Publish(sw.ID, JobEvent{Type: EventProgress, Stage: "cell", Cell: fmt.Sprintf("c%d", c), CellState: string(JobDone)})
	}
	s.Finish(sw.ID, nil, errors.New("boom"))
	past = checkReplay(t, s, sw.ID)
	cells, ticks := 0, 0
	for _, ev := range past[:len(past)-1] {
		if ev.Cell != "" {
			cells++
		} else {
			ticks++
		}
	}
	if cells != 10 || ticks != finishedJobTicks {
		t.Errorf("finished sweep replay: %d cell events and %d ticks, want 10 and %d", cells, ticks, finishedJobTicks)
	}
	if last := past[len(past)-1]; last.Type != string(JobFailed) || last.Error != "boom" {
		t.Errorf("finished sweep replay ends with %+v, want the failed frame", last)
	}
}
