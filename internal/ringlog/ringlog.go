// Package ringlog is the durable-log mechanism under welmaxd's
// flight recorder (internal/journal) and trace store
// (internal/tracestore): a bounded in-memory ring of sequence-numbered
// entries behind a single mutex (Append is O(1) and never blocks),
// cursor scans over it, and an optional asynchronous spill of every
// entry as one JSON line inside CRC-framed segment files
// (internal/frame) rotated oldest-first under a byte budget. The spill
// is best-effort by design: a full channel drops the disk copy
// (counted, never blocking the caller) while the ring still has the
// entry. What an entry means, which ones are worth keeping and who is
// told about them is the wrapping package's policy.
package ringlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/frame"
)

// ErrBadSegment reports an unreadable segment (wrong magic or version,
// truncated, or failed checksum); the frame package's error is wrapped
// beside it.
var ErrBadSegment = errors.New("ringlog: bad segment")

// maxSegmentPayload bounds a segment's declared payload length so a
// corrupt header cannot force an absurd allocation.
const maxSegmentPayload = 1 << 30

// Config describes one log. Dir == "" keeps it in memory only.
type Config struct {
	// RingSize is the ring capacity in entries (must be positive).
	RingSize int
	// Dir enables the async segment spill; the directory is created.
	// Segment files are named <Prefix>-<first sequence number, 16 hex
	// digits><Ext> — lexical order is chronological — and framed with
	// Magic and Version.
	Dir     string
	Prefix  string
	Ext     string
	Magic   string
	Version uint32
	// SpillDepth is the spill channel's capacity: how many entries may
	// wait for the spill goroutine before Append starts dropping disk
	// copies instead of blocking.
	SpillDepth int
	// SegmentBytes seals a segment once its JSONL payload reaches this
	// size (default 256 KiB). MaxBytes bounds the directory, oldest
	// segments deleted past it (default 32 MiB — a log must not grow
	// without bound). FlushInterval seals a non-empty pending segment
	// even below SegmentBytes, so a quiet log still reaches disk
	// (default 5s).
	SegmentBytes  int64
	MaxBytes      int64
	FlushInterval time.Duration
}

// Stats is a log's self-accounting.
type Stats struct {
	// Appended counts entries accepted since the log was opened; Dropped
	// the ones whose disk copy was dropped on a full spill channel.
	Appended int64
	Dropped  int64
	RingLen  int
	RingCap  int
	// Segments counts segment files sealed; SpillErrors failed seals.
	Segments    int64
	SpillErrors int64
}

// Log is a bounded ring of T plus the optional segment spill. The ring
// always holds the most recent entries with contiguous sequence
// numbers, which is what lets a cursor scan start at its cursor.
type Log[T any] struct {
	cfg Config

	mu    sync.Mutex
	buf   []T    // ring storage, len(buf) == capacity
	head  int    // index of the oldest entry
	n     int    // entries currently in the ring
	first uint64 // sequence number this open started at
	next  uint64 // next sequence number to assign

	dropped     atomic.Int64
	segments    atomic.Int64
	spillErrors atomic.Int64

	// Spill state (nil when cfg.Dir is unset).
	spill chan spilled[T]
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

// spilled is one entry on its way to disk, with the sequence number
// that names the segment it opens.
type spilled[T any] struct {
	seq uint64
	v   T
}

// New opens a log. On a directory that already holds segments the
// sequence resumes after the highest number in the newest readable one,
// so sequence numbers (and the cursors built from them) keep increasing
// across restarts and a new segment never takes a surviving one's name;
// the ring itself starts empty. For that, T must marshal its sequence
// number as the JSON field "seq".
func New[T any](cfg Config) (*Log[T], error) {
	l := &Log[T]{cfg: cfg, buf: make([]T, cfg.RingSize), first: 1}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if l.cfg.SegmentBytes <= 0 {
			l.cfg.SegmentBytes = 256 << 10
		}
		if l.cfg.MaxBytes <= 0 {
			l.cfg.MaxBytes = 32 << 20
		}
		if l.cfg.FlushInterval <= 0 {
			l.cfg.FlushInterval = 5 * time.Second
		}
		l.first = l.lastSpilledSeq() + 1
		l.spill = make(chan spilled[T], cfg.SpillDepth)
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.spillLoop()
	}
	l.next = l.first
	return l, nil
}

// Append assigns *v the next sequence number — written through seq,
// which must point at v's own sequence field — and stores a copy in the
// ring, overwriting the oldest entry when full. It is safe from any
// goroutine, including ones holding unrelated locks: the critical
// section is O(1), the spill send is non-blocking, nothing does I/O.
func (l *Log[T]) Append(v *T, seq *uint64) {
	l.mu.Lock()
	*seq = l.next
	l.next++
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = *v
		l.n++
	} else {
		l.buf[l.head] = *v
		l.head = (l.head + 1) % len(l.buf)
	}
	l.mu.Unlock()
	if l.spill != nil {
		select {
		case l.spill <- spilled[T]{*seq, *v}:
		default:
			l.dropped.Add(1)
		}
	}
}

// Scan returns up to limit ring entries with a sequence number above
// after for which match reports true, oldest first, plus the cursor to
// pass as after on the next call: the last sequence number examined,
// matched or not, so pagination advances past filtered spans too (next
// equals after when nothing new was examined). match runs under the
// log's mutex — it must be a pure filter.
func (l *Log[T]) Scan(after uint64, limit int, match func(*T) bool) (out []T, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = after
	oldest := l.next - uint64(l.n) // sequence number of ring entry 0
	i := 0
	if after >= oldest {
		i = int(min(after-oldest+1, uint64(l.n)))
	}
	for ; i < l.n && len(out) < limit; i++ {
		next = oldest + uint64(i)
		if v := &l.buf[(l.head+i)%len(l.buf)]; match(v) {
			out = append(out, *v)
		}
	}
	return out, next
}

// Find returns the newest entry for which match reports true: the ring
// is searched newest-first (match under the mutex, as in Scan), then
// the spilled segments newest-first, so an entry that aged out of the
// ring is still found while its segment survives the byte budget.
func (l *Log[T]) Find(match func(*T) bool) (T, bool) {
	l.mu.Lock()
	for i := l.n - 1; i >= 0; i-- {
		if v := &l.buf[(l.head+i)%len(l.buf)]; match(v) {
			found := *v
			l.mu.Unlock()
			return found, true
		}
	}
	l.mu.Unlock()
	for _, path := range l.segmentsNewestFirst() {
		entries, err := ReadSegment[T](path, l.cfg.Magic, l.cfg.Version)
		if err != nil {
			continue
		}
		for i := len(entries) - 1; i >= 0; i-- {
			if match(&entries[i]) {
				return entries[i], true
			}
		}
	}
	var zero T
	return zero, false
}

// LastSeq returns the most recently assigned sequence number (0 when
// nothing was ever appended, in this or an earlier open of Dir).
func (l *Log[T]) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Stats snapshots the log's counters.
func (l *Log[T]) Stats() Stats {
	l.mu.Lock()
	appended, n := l.next-l.first, l.n
	l.mu.Unlock()
	return Stats{
		Appended:    int64(appended),
		Dropped:     l.dropped.Load(),
		RingLen:     n,
		RingCap:     len(l.buf),
		Segments:    l.segments.Load(),
		SpillErrors: l.spillErrors.Load(),
	}
}

// Close stops the spill goroutine after flushing any pending segment.
// The ring remains queryable. Close is a no-op for in-memory logs and
// idempotent otherwise.
func (l *Log[T]) Close() {
	if l.stop == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
}

// spillLoop drains the spill channel into a pending JSONL buffer and
// seals it into a segment file when it reaches the size threshold, on
// the flush ticker, and at shutdown.
func (l *Log[T]) spillLoop() {
	defer close(l.done)
	var pending bytes.Buffer
	var firstSeq uint64
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()

	add := func(s spilled[T]) {
		line, err := json.Marshal(s.v)
		if err != nil {
			return
		}
		if pending.Len() == 0 {
			firstSeq = s.seq
		}
		pending.Write(line)
		pending.WriteByte('\n')
		if int64(pending.Len()) >= l.cfg.SegmentBytes {
			l.seal(&pending, firstSeq)
		}
	}

	for {
		select {
		case s := <-l.spill:
			add(s)
		case <-ticker.C:
			if pending.Len() > 0 {
				l.seal(&pending, firstSeq)
			}
		case <-l.stop:
			for {
				select {
				case s := <-l.spill:
					add(s)
					continue
				default:
				}
				break
			}
			if pending.Len() > 0 {
				l.seal(&pending, firstSeq)
			}
			return
		}
	}
}

// seal writes the pending JSONL buffer as one framed segment file and
// enforces the byte budget. The buffer is reset either way: a failed
// write is counted and dropped, never retried into an ever-growing
// buffer.
func (l *Log[T]) seal(pending *bytes.Buffer, firstSeq uint64) {
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("%s-%016x%s", l.cfg.Prefix, firstSeq, l.cfg.Ext))
	err := frame.WriteFileAtomic(path, func(w io.Writer) error {
		return frame.Write(w, l.cfg.Magic, l.cfg.Version, pending.Bytes())
	})
	pending.Reset()
	if err != nil {
		l.spillErrors.Add(1)
		return
	}
	l.segments.Add(1)
	frame.PruneOldest(l.cfg.Dir, l.cfg.Ext, l.cfg.MaxBytes)
}

// segmentsNewestFirst lists the spilled segment paths, newest first
// (segment names embed their first sequence number in fixed-width hex,
// so lexical order is chronological).
func (l *Log[T]) segmentsNewestFirst() []string {
	if l.cfg.Dir == "" {
		return nil
	}
	entries, err := os.ReadDir(l.cfg.Dir)
	if err != nil {
		return nil
	}
	var paths []string
	for _, e := range entries { // ReadDir sorts by name
		if !e.IsDir() && strings.HasSuffix(e.Name(), l.cfg.Ext) {
			paths = append(paths, filepath.Join(l.cfg.Dir, e.Name()))
		}
	}
	slices.Reverse(paths)
	return paths
}

// lastSpilledSeq returns the highest sequence number in the newest
// segment that still reads back (an unreadable or empty newest segment
// defers to the next older one), or 0 when none does.
func (l *Log[T]) lastSpilledSeq() uint64 {
	for _, path := range l.segmentsNewestFirst() {
		entries, _ := ReadSegment[struct {
			Seq uint64 `json:"seq"`
		}](path, l.cfg.Magic, l.cfg.Version)
		var last uint64
		for _, e := range entries {
			last = max(last, e.Seq)
		}
		if last > 0 {
			return last
		}
	}
	return 0
}

// ReadSegment decodes one segment file, verifying magic, version,
// length, and checksum, and returns its entries in spilled order
// (unparseable lines are skipped). Every decoding failure is
// ErrBadSegment.
func ReadSegment[T any](path, magic string, version uint32) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, err := frame.Read(f, magic, version, maxSegmentPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSegment, err)
	}
	var out []T
	sc := bufio.NewScanner(bytes.NewReader(payload))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var v T
		if json.Unmarshal(sc.Bytes(), &v) == nil {
			out = append(out, v)
		}
	}
	return out, nil
}
