package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingWraparound(t *testing.T) {
	r, err := New(Options{Node: "b0", RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.Record(Event{Type: CacheEvict, Key: fmt.Sprintf("k%d", i)})
	}
	events, next := r.Events(Query{Limit: MaxLimit})
	if len(events) != 8 {
		t.Fatalf("ring of 8 after 20 records holds %d events", len(events))
	}
	// The oldest 12 were overwritten: the survivors are k12..k19 with
	// strictly increasing, contiguous sequence numbers.
	for i, e := range events {
		if want := fmt.Sprintf("k%d", 12+i); e.Key != want {
			t.Fatalf("event %d: key %q, want %q", i, e.Key, want)
		}
		if e.Seq != uint64(13+i) {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, 13+i)
		}
		if e.Node != "b0" {
			t.Fatalf("event %d: node %q not stamped", i, e.Node)
		}
	}
	if next != 20 {
		t.Fatalf("next cursor %d, want 20", next)
	}
	// The cursor resumes cleanly: nothing after seq 20 yet.
	more, next2 := r.Events(Query{After: next})
	if len(more) != 0 || next2 != next {
		t.Fatalf("resume after %d returned %d events, next %d", next, len(more), next2)
	}
	r.Record(Event{Type: CacheExpire, Key: "fresh"})
	more, _ = r.Events(Query{After: next})
	if len(more) != 1 || more[0].Key != "fresh" {
		t.Fatalf("resume missed the fresh event: %+v", more)
	}
}

func TestQueryFilters(t *testing.T) {
	r, err := New(Options{Node: "b0", RingSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().UTC()
	r.Record(Event{Type: OwnershipFlip, Graph: "g1", TS: base})
	r.Record(Event{Type: SketchShip, Graph: "g1", TS: base.Add(time.Second)})
	r.Record(Event{Type: OwnershipFlip, Graph: "g2", Node: "b1", TS: base.Add(2 * time.Second)})

	if got, _ := r.Events(Query{Graph: "g1"}); len(got) != 2 {
		t.Fatalf("graph filter: %d events, want 2", len(got))
	}
	if got, _ := r.Events(Query{Type: OwnershipFlip}); len(got) != 2 {
		t.Fatalf("type filter: %d events, want 2", len(got))
	}
	if got, _ := r.Events(Query{Type: "ownership_flip,sketch_ship", Graph: "g1"}); len(got) != 2 {
		t.Fatalf("type list + graph filter: %d events, want 2", len(got))
	}
	if got, _ := r.Events(Query{Node: "b1"}); len(got) != 1 {
		t.Fatalf("node filter: %d events, want 1", len(got))
	}
	if got, _ := r.Events(Query{Since: base.Add(1500 * time.Millisecond)}); len(got) != 1 {
		t.Fatalf("since filter: %d events, want 1", len(got))
	}
	// The cursor advances past filtered-out events, so pagination
	// terminates even when every remaining event is filtered away.
	got, next := r.Events(Query{Graph: "nope"})
	if len(got) != 0 || next != 3 {
		t.Fatalf("all-filtered query: %d events, next %d (want 0, 3)", len(got), next)
	}
	r.Record(Event{Type: AdmissionReject, Graph: "g1", TraceID: "t-42", TS: base.Add(3 * time.Second)})
	if got, _ := r.Events(Query{Trace: "t-42"}); len(got) != 1 || got[0].Type != AdmissionReject {
		t.Fatalf("trace filter: %+v, want the one t-42 event", got)
	}
	if got, _ := r.Events(Query{Trace: "t-nope"}); len(got) != 0 {
		t.Fatalf("trace filter matched %d events for an unknown id", len(got))
	}
}

func TestSegmentSpillAndRotation(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Options{
		Node:          "b0",
		RingSize:      32,
		Dir:           dir,
		SegmentBytes:  2 << 10, // tiny segments so one test rotates several
		MaxBytes:      6 << 10,
		FlushInterval: time.Hour, // force size-based sealing only
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~100 events * ~150 JSON bytes ≈ 15 KiB: several segments sealed,
	// the oldest rotated away to honor the 6 KiB budget.
	for i := 0; i < 100; i++ {
		r.Record(Event{Type: SweepDispatch, Graph: "g", Cell: fmt.Sprintf("cell-%04d", i), Reason: strings.Repeat("x", 80)})
	}
	r.Close()

	matches, _ := filepath.Glob(filepath.Join(dir, "*"+SegmentExt))
	if len(matches) == 0 {
		t.Fatal("no segments written")
	}
	var total int64
	for _, m := range matches {
		info, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 8<<10 { // budget + one freshly sealed segment of slack
		t.Fatalf("journal dir holds %d bytes after rotation (budget 6 KiB)", total)
	}
	st := r.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several sealed segments, got %d", st.Segments)
	}
	if int64(len(matches)) >= st.Segments {
		t.Fatalf("rotation deleted nothing: %d files on disk, %d sealed", len(matches), st.Segments)
	}

	// Surviving segments decode cleanly and in order.
	var lastSeq uint64
	for _, m := range matches {
		events, err := ReadSegment(m)
		if err != nil {
			t.Fatalf("ReadSegment(%s): %v", m, err)
		}
		for _, e := range events {
			if e.Seq <= lastSeq {
				t.Fatalf("segment events out of order: seq %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}
	}
	if lastSeq != 100 {
		t.Fatalf("newest spilled seq %d, want 100", lastSeq)
	}
}

func TestReadSegmentRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Options{Dir: dir, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Event{Type: MemberDown, Node: "b1"})
	r.Close()
	matches, _ := filepath.Glob(filepath.Join(dir, "*"+SegmentExt))
	if len(matches) != 1 {
		t.Fatalf("want 1 segment, got %d", len(matches))
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // flip a payload bit
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(matches[0]); err == nil {
		t.Fatal("corrupt segment decoded without error")
	}
}

// TestConcurrentRecord exercises the ring, subscribers, and spill under
// the race detector: many writers, a querier, and a subscriber at once.
func TestConcurrentRecord(t *testing.T) {
	dir := t.TempDir()
	r, err := New(Options{Node: "b0", RingSize: 128, Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ch, cancel := r.Subscribe(16)
	defer cancel()
	go func() {
		for range ch {
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(Event{Type: AdmissionReject, Graph: fmt.Sprintf("g%d", w), WaitMS: int64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor uint64
		for i := 0; i < 50; i++ {
			_, cursor = r.Events(Query{After: cursor, Limit: MaxLimit})
		}
	}()
	wg.Wait()
	<-done

	if got := r.Stats().Recorded; got != 1600 {
		t.Fatalf("recorded %d events, want 1600", got)
	}
	events, _ := r.Events(Query{Limit: MaxLimit})
	if len(events) != 128 {
		t.Fatalf("ring holds %d, want 128", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("ring not contiguous at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestRestartKeepsEarlierSegments boots a recorder twice over one
// directory: the second boot must continue the first one's sequence, so
// its segments sort after — and are never renamed over — the ones
// already there. (Both boots used to start at 1, and boot 2's first
// seal replaced journal-0000000000000001.wmj.)
func TestRestartKeepsEarlierSegments(t *testing.T) {
	dir := t.TempDir()
	boot := func(key string) *Recorder {
		r, err := New(Options{Node: "b0", Dir: dir, FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			r.Record(Event{Type: CacheEvict, Key: key})
		}
		r.Close()
		return r
	}
	boot("boot1")
	r2 := boot("boot2")
	if got := r2.LastSeq(); got != 6 {
		t.Fatalf("boot 2 ended at seq %d, want 6 (3 per boot)", got)
	}
	if events, _ := r2.Events(Query{}); len(events) != 3 || events[0].Seq != 4 {
		t.Fatalf("boot 2's ring = %+v, want its own three events from seq 4", events)
	}

	matches, _ := filepath.Glob(filepath.Join(dir, "*"+SegmentExt))
	var keys []string
	var lastSeq uint64
	for _, m := range matches { // Glob sorts: name order must be time order
		events, err := ReadSegment(m)
		if err != nil {
			t.Fatalf("ReadSegment(%s): %v", m, err)
		}
		for _, e := range events {
			if e.Seq <= lastSeq {
				t.Fatalf("seq %d after %d: not strictly increasing across boots", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			keys = append(keys, e.Key)
		}
	}
	if got, want := strings.Join(keys, ","), "boot1,boot1,boot1,boot2,boot2,boot2"; got != want {
		t.Fatalf("events on disk after two boots: %s, want %s (segments %v)", got, want, matches)
	}

	// A corrupt newest segment does not stop the next boot.
	if err := os.WriteFile(matches[len(matches)-1], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := boot("boot3")
	if got := r3.LastSeq(); got != 6 {
		t.Fatalf("boot 3 over a corrupt newest segment ended at seq %d, want 6 (resumed after boot 1's 3)", got)
	}
}
