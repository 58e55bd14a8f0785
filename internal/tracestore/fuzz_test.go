package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uicwelfare/internal/frame"
)

// FuzzReadSegment feeds arbitrary bytes through the .wmt segment reader:
// any input must either decode (possibly to zero records — unparseable
// JSON lines are skipped by design) or fail with ErrBadSegment. Panics
// and unbounded allocations from forged length fields are the bugs this
// hunts.
func FuzzReadSegment(f *testing.F) {
	var payload bytes.Buffer
	enc := func(r Record) {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		payload.Write(b)
		payload.WriteByte('\n')
	}
	enc(Record{Seq: 1, TraceID: "t1", Route: "allocate", Start: time.Unix(1700000000, 0).UTC(), DurationMS: 12.5})
	enc(Record{Seq: 2, TraceID: "t2", Route: "warm", Start: time.Unix(1700000001, 0).UTC(), DurationMS: 3.25})
	var valid bytes.Buffer
	if err := frame.Write(&valid, SegmentMagic, SegmentVersion, payload.Bytes()); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:12])                   // truncated header
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // truncated checksum
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[25] ^= 0x10 // payload bit flip -> checksum mismatch
	f.Add(flipped)
	forged := append([]byte(nil), valid.Bytes()...)
	forged[12], forged[13], forged[14] = 0xff, 0xff, 0xff // forged multi-MiB length
	f.Add(forged)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg"+SegmentExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSegment(path); err != nil && !errors.Is(err, ErrBadSegment) {
			t.Fatalf("untyped segment error: %v", err)
		}
	})
}
