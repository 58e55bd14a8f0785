package ringlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/frame"
)

// entry is the test log's element: a sequence number under the JSON
// name the resume logic requires, and something to filter on.
type entry struct {
	Seq uint64 `json:"seq"`
	Tag string `json:"tag"`
	Pad string `json:"pad,omitempty"`
}

const (
	testMagic   = "WMTEST\x00\x00"
	testVersion = 1
	testExt     = ".wmx"
)

func open(t *testing.T, cfg Config) *Log[entry] {
	t.Helper()
	if cfg.RingSize == 0 {
		cfg.RingSize = 16
	}
	cfg.Prefix, cfg.Ext, cfg.Magic, cfg.Version = "test", testExt, testMagic, testVersion
	if cfg.SpillDepth == 0 {
		cfg.SpillDepth = 1024
	}
	l, err := New[entry](cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

func add(l *Log[entry], tag string) entry {
	e := entry{Tag: tag}
	l.Append(&e, &e.Seq)
	return e
}

func every(*entry) bool { return true }

func segments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+testExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// waitSegments polls until the log has sealed at least n segments.
func waitSegments(t *testing.T, l *Log[entry], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Segments < n {
		if time.Now().After(deadline) {
			t.Fatalf("sealed %d segments, want >= %d", l.Stats().Segments, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWraparoundAndCursorPagination(t *testing.T) {
	l := open(t, Config{RingSize: 8})
	for i := 1; i <= 20; i++ {
		if e := add(l, fmt.Sprintf("t%d", i)); e.Seq != uint64(i) {
			t.Fatalf("append %d stamped seq %d", i, e.Seq)
		}
	}
	// The oldest 12 were overwritten: the ring holds t13..t20 with
	// contiguous sequence numbers.
	all, next := l.Scan(0, 100, every)
	if len(all) != 8 || next != 20 {
		t.Fatalf("ring of 8 after 20 appends: %d entries, next %d", len(all), next)
	}
	for i, e := range all {
		if e.Seq != uint64(13+i) || e.Tag != fmt.Sprintf("t%d", 13+i) {
			t.Fatalf("entry %d = %+v, want seq %d", i, e, 13+i)
		}
	}
	// Paging: a cursor inside the overwritten prefix starts at the oldest
	// survivor; the limit cuts the page and next names its last entry.
	page1, next := l.Scan(5, 5, every)
	if len(page1) != 5 || page1[0].Seq != 13 || next != 17 {
		t.Fatalf("page1: %d entries from %d, next %d; want 5 from 13, next 17", len(page1), page1[0].Seq, next)
	}
	page2, next := l.Scan(next, 5, every)
	if len(page2) != 3 || page2[0].Seq != 18 || next != 20 {
		t.Fatalf("page2: %d entries, next %d; want 3 ending at 20", len(page2), next)
	}
	if page3, next3 := l.Scan(next, 5, every); len(page3) != 0 || next3 != next {
		t.Fatalf("exhausted cursor returned %d entries, next %d", len(page3), next3)
	}
	// A cursor from the future examines nothing and is handed back.
	if got, next := l.Scan(99, 5, every); len(got) != 0 || next != 99 {
		t.Fatalf("future cursor returned %d entries, next %d", len(got), next)
	}
	// next advances past filtered entries, so a filtered walk terminates
	// without re-examining them; it stops at the entry that filled the
	// page, not at the end of the ring.
	even := func(e *entry) bool { return e.Seq%2 == 0 }
	got, next := l.Scan(0, 2, even)
	if len(got) != 2 || got[0].Seq != 14 || got[1].Seq != 16 || next != 16 {
		t.Fatalf("filtered page = %+v, next %d; want seqs 14,16 and next 16", got, next)
	}
	if got, next := l.Scan(0, 5, func(*entry) bool { return false }); len(got) != 0 || next != 20 {
		t.Fatalf("all-filtered scan: %d entries, next %d (want 0, 20)", len(got), next)
	}
	if l.LastSeq() != 20 {
		t.Fatalf("LastSeq %d, want 20", l.LastSeq())
	}
	if st := l.Stats(); st.Appended != 20 || st.RingLen != 8 || st.RingCap != 8 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFindNewestFirstRingThenDisk(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Config{RingSize: 2, Dir: dir, FlushInterval: time.Hour})
	add(l, "dup")
	add(l, "old")
	add(l, "dup")
	add(l, "new")
	tagged := func(tag string) func(*entry) bool {
		return func(e *entry) bool { return e.Tag == tag }
	}
	if e, ok := l.Find(tagged("dup")); !ok || e.Seq != 3 {
		t.Fatalf("Find(dup) = %+v %v, want the newer one (seq 3)", e, ok)
	}
	if _, ok := l.Find(tagged("old")); ok {
		t.Fatal("entry aged out of the ring found before any segment was sealed")
	}
	l.Close()
	if e, ok := l.Find(tagged("old")); !ok || e.Seq != 2 {
		t.Fatalf("Find(old) after spill = %+v %v, want seq 2 from disk", e, ok)
	}
	if _, ok := l.Find(tagged("never")); ok {
		t.Fatal("Find matched nothing yet reported ok")
	}
}

func TestSealOnSizeTickerAndClose(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		dir := t.TempDir()
		l := open(t, Config{Dir: dir, SegmentBytes: 256, FlushInterval: time.Hour})
		for i := 0; i < 8; i++ {
			e := entry{Tag: "s", Pad: strings.Repeat("x", 100)}
			l.Append(&e, &e.Seq)
		}
		waitSegments(t, l, 2) // sealed while still open, with no tick
	})
	t.Run("ticker", func(t *testing.T) {
		dir := t.TempDir()
		l := open(t, Config{Dir: dir, FlushInterval: 5 * time.Millisecond})
		add(l, "quiet")
		waitSegments(t, l, 1) // far below SegmentBytes, sealed by the tick
	})
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		l := open(t, Config{Dir: dir, FlushInterval: time.Hour})
		add(l, "a")
		add(l, "b")
		l.Close()
		l.Close() // idempotent
		names := segments(t, dir)
		if len(names) != 1 || filepath.Base(names[0]) != "test-0000000000000001"+testExt {
			t.Fatalf("segments after Close = %v, want the one named after seq 1", names)
		}
		got, err := ReadSegment[entry](names[0], testMagic, testVersion)
		if err != nil || len(got) != 2 || got[0].Tag != "a" || got[1].Seq != 2 {
			t.Fatalf("ReadSegment = %+v, %v", got, err)
		}
		// A closed log still appends to its ring.
		if e := add(l, "late"); e.Seq != 3 {
			t.Fatalf("append after Close stamped %d", e.Seq)
		}
	})
	t.Run("memory-only", func(t *testing.T) {
		l := open(t, Config{})
		add(l, "a")
		l.Close() // no goroutine to stop, no segment to write
		if st := l.Stats(); st.Segments != 0 || st.Dropped != 0 {
			t.Fatalf("in-memory log reports spill activity: %+v", st)
		}
	})
}

func TestByteBudgetRotation(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Config{Dir: dir, SegmentBytes: 2 << 10, MaxBytes: 6 << 10, FlushInterval: time.Hour})
	for i := 0; i < 100; i++ {
		e := entry{Tag: "r", Pad: strings.Repeat("x", 120)}
		l.Append(&e, &e.Seq)
	}
	l.Close()
	names := segments(t, dir)
	var total int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 6<<10 {
		t.Fatalf("directory holds %d bytes after rotation, budget %d", total, 6<<10)
	}
	st := l.Stats()
	if st.Segments < 4 || int64(len(names)) >= st.Segments {
		t.Fatalf("%d sealed, %d on disk: rotation deleted nothing", st.Segments, len(names))
	}
	// The oldest went first: what survives is a suffix of the sequence,
	// in order, ending at the last append.
	var last uint64
	for _, name := range names {
		got, err := ReadSegment[entry](name, testMagic, testVersion)
		if err != nil {
			t.Fatalf("ReadSegment(%s): %v", name, err)
		}
		for _, e := range got {
			if last != 0 && e.Seq != last+1 {
				t.Fatalf("surviving segments not contiguous: %d after %d", e.Seq, last)
			}
			last = e.Seq
		}
	}
	if last != 100 {
		t.Fatalf("newest spilled seq %d, want 100", last)
	}
}

func TestReadSegmentRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Config{Dir: dir, FlushInterval: time.Hour})
	add(l, "a")
	l.Close()
	path := segments(t, dir)[0]
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"bit flip":       {func(b []byte) []byte { b[len(b)-6] ^= 0xff; return b }, frame.ErrChecksum},
		"truncated":      {func(b []byte) []byte { return b[:len(b)-3] }, frame.ErrTruncated},
		"foreign magic":  {func(b []byte) []byte { copy(b, "WMJRNL\x00\x00"); return b }, frame.ErrBadMagic},
		"future version": {func(b []byte) []byte { b[8] = 9; return b }, frame.ErrBadVersion},
	}
	for name, c := range cases {
		bad := filepath.Join(dir, "bad"+testExt)
		if err := os.WriteFile(bad, c.mutate(append([]byte(nil), valid...)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadSegment[entry](bad, testMagic, testVersion)
		if !errors.Is(err, ErrBadSegment) || !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want ErrBadSegment wrapping %v", name, err, c.want)
		}
	}
	if _, err := ReadSegment[entry](filepath.Join(dir, "missing"+testExt), testMagic, testVersion); err == nil || errors.Is(err, ErrBadSegment) {
		t.Errorf("missing file: err = %v, want the plain open error", err)
	}
}

// TestFullSpillChannelDropsAndCounts fills the spill channel of a log
// whose spill goroutine has stopped: Append must keep returning (the
// ring keeps every entry) and count each disk copy it had to drop.
func TestFullSpillChannelDropsAndCounts(t *testing.T) {
	l := open(t, Config{RingSize: 32, Dir: t.TempDir(), SpillDepth: 4, FlushInterval: time.Hour})
	l.Close() // nothing drains the channel any more
	for i := 0; i < 10; i++ {
		add(l, "x")
	}
	if st := l.Stats(); st.Dropped != 6 || st.Appended != 10 || st.RingLen != 10 {
		t.Fatalf("stats %+v, want 6 dropped of 10 appended, all 10 in the ring", st)
	}
}

// TestResumeAcrossReopen is the restart contract: a log reopened on a
// directory that holds segments continues the sequence after them, so
// nothing is renamed over and every entry of both runs stays readable.
func TestResumeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 64, FlushInterval: time.Hour} // three entries a segment
	boot1 := open(t, cfg)
	for i := 0; i < 5; i++ {
		add(boot1, "boot1")
	}
	boot1.Close()

	boot2 := open(t, cfg)
	if boot2.LastSeq() != 5 {
		t.Fatalf("reopened log resumes after seq %d, want 5", boot2.LastSeq())
	}
	if got, _ := boot2.Scan(0, 10, every); len(got) != 0 {
		t.Fatalf("reopened ring holds %d entries, want it empty", len(got))
	}
	for i := 0; i < 5; i++ {
		if e := add(boot2, "boot2"); e.Seq != uint64(6+i) {
			t.Fatalf("boot 2 append %d stamped seq %d, want %d", i, e.Seq, 6+i)
		}
	}
	boot2.Close()
	if st := boot2.Stats(); st.Appended != 5 {
		t.Fatalf("boot 2 counts %d appended, want its own 5", st.Appended)
	}

	var seqs []uint64
	names := segments(t, dir) // Glob sorts: lexical order must be chronological
	for _, name := range names {
		got, err := ReadSegment[entry](name, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range got {
			seqs = append(seqs, e.Seq)
		}
	}
	if len(seqs) != 10 {
		t.Fatalf("%d entries on disk after two boots, want 10 (segments %v)", len(seqs), names)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("sequence across boots = %v, want 1..10 in segment-name order", seqs)
		}
	}
	if e, ok := boot2.Find(func(e *entry) bool { return e.Seq == 2 }); !ok || e.Tag != "boot1" {
		t.Fatalf("boot-1 entry not found from boot 2: %+v %v", e, ok)
	}

	// An unreadable newest segment defers to the next older one; with
	// none readable the sequence starts over at 1. Neither stops New.
	newest := names[len(names)-1]
	if err := os.WriteFile(newest, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	prev, err := ReadSegment[entry](names[len(names)-2], testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	boot3 := open(t, cfg)
	if want := prev[len(prev)-1].Seq; boot3.LastSeq() != want {
		t.Fatalf("with a corrupt newest segment the log resumes after %d, want %d", boot3.LastSeq(), want)
	}
	boot3.Close()
	for _, name := range segments(t, dir) {
		if err := os.WriteFile(name, []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if boot4 := open(t, cfg); boot4.LastSeq() != 0 {
		t.Fatalf("with no readable segment the log resumes after %d, want 0", boot4.LastSeq())
	}
}

// TestConcurrentAppend runs writers, a paging reader and a Find at
// once (for the race detector) and checks no sequence number is lost
// or duplicated.
func TestConcurrentAppend(t *testing.T) {
	l := open(t, Config{RingSize: 128, Dir: t.TempDir(), SegmentBytes: 4 << 10})
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				add(l, fmt.Sprintf("w%d", w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor uint64
		for i := 0; i < 50; i++ {
			_, cursor = l.Scan(cursor, 64, every)
			l.Find(func(e *entry) bool { return e.Tag == "w3" })
		}
	}()
	wg.Wait()
	<-done
	l.Close()

	if st := l.Stats(); st.Appended != writers*each {
		t.Fatalf("appended %d, want %d", st.Appended, writers*each)
	}
	ring, next := l.Scan(0, 1000, every)
	if len(ring) != 128 || next != writers*each {
		t.Fatalf("ring holds %d ending at %d, want 128 ending at %d", len(ring), next, writers*each)
	}
	for i, e := range ring {
		if want := uint64(writers*each - 127 + i); e.Seq != want {
			t.Fatalf("ring entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}
