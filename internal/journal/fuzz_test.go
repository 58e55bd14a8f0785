package journal

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

// FuzzReadSegment feeds arbitrary bytes through the .wmj segment reader:
// any input must either decode (possibly to zero events — unparseable
// JSON lines are skipped by design) or fail with ErrBadSegment. Panics
// and unbounded allocations from forged length fields are the bugs this
// hunts.
func FuzzReadSegment(f *testing.F) {
	var payload bytes.Buffer
	enc := func(e Event) {
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		payload.Write(b)
		payload.WriteByte('\n')
	}
	enc(Event{Seq: 1, TS: time.Unix(1700000000, 0).UTC(), Type: "graph_registered", Graph: "g1"})
	enc(Event{Seq: 2, TS: time.Unix(1700000001, 0).UTC(), Type: "sketch_built", Key: "k"})
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
