package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The golden frames below were recorded from the three frame writers
// this package replaced — one each in internal/store, internal/journal
// and internal/tracestore — at the commit before it existed, each
// framing the payload "golden payload\n" at version 1.
// They pin the byte layout: the payload codecs are untouched, so frame
// identity is file identity for .wmg/.wms/WMSSTRM/.wsr/.wmj/.wmt.
const goldenPayload = "golden payload\n"

var golden = []struct{ magic, hex string }{
	{"WMGRAPH\x00", "574d475241504800010000000f00000000000000676f6c64656e207061796c6f61640ac00792fe"},
	{"WMSKTCH\x00", "574d534b54434800010000000f00000000000000676f6c64656e207061796c6f61640ac00792fe"},
	{"WMSSTRM\x00", "574d535354524d00010000000f00000000000000676f6c64656e207061796c6f61640ac00792fe"},
	{"WMSWEEP\x00", "574d535745455000010000000f00000000000000676f6c64656e207061796c6f61640ac00792fe"},
	{"WMJRNL\x00\x00", "574d4a524e4c0000010000000f00000000000000676f6c64656e207061796c6f61640ac00792fe"},
	{"WMTRCE\x00\x00", "574d545243450000010000000f00000000000000676f6c64656e207061796c6f61640ac00792fe"},
}

func TestGoldenBytes(t *testing.T) {
	for _, g := range golden {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g.magic, 1, []byte(goldenPayload)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%q: Write produced\n%x, the recorded frame is\n%x", g.magic, buf.Bytes(), want)
		}
		payload, err := Read(bytes.NewReader(want), g.magic, 1, 1<<20)
		if err != nil || string(payload) != goldenPayload {
			t.Errorf("%q: Read of the recorded frame = %q, %v", g.magic, payload, err)
		}
	}
	// The empty payload, also recorded: header plus the CRC of nothing.
	var buf bytes.Buffer
	if err := Write(&buf, "WMGRAPH\x00", 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != "574d47524150480001000000000000000000000000000000" {
		t.Errorf("empty frame = %s", got)
	}
	if payload, err := Read(&buf, "WMGRAPH\x00", 1, 0); err != nil || len(payload) != 0 {
		t.Errorf("empty frame read back as %q, %v", payload, err)
	}
}

const testMagic = "WMTEST\x00\x00"

func validFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, 3, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadCorruptionMatrix(t *testing.T) {
	valid := validFrame(t, bytes.Repeat([]byte("payload "), 64))
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   error
	}{
		{"empty input", func(b []byte) []byte { return nil }, ErrTruncated},
		{"truncated header", func(b []byte) []byte { return b[:12] }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-3] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte { b[8]++; return b }, ErrBadVersion},
		{"payload bit flip", func(b []byte) []byte { b[headerLen+5] ^= 0x10; return b }, ErrChecksum},
		{"checksum bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrChecksum},
		{"length one short", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[12:20], 511); return b }, ErrChecksum},
		{"length over the bound", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[12:20], 1<<20+1); return b }, ErrCorrupt},
	}
	all := []error{ErrBadMagic, ErrBadVersion, ErrChecksum, ErrTruncated, ErrCorrupt}
	for _, c := range cases {
		_, err := Read(bytes.NewReader(c.mutate(append([]byte(nil), valid...))), testMagic, 3, 1<<20)
		for _, typed := range all {
			if errors.Is(err, typed) != (typed == c.want) {
				t.Errorf("%s: err = %v, want exactly %v", c.name, err, c.want)
			}
		}
	}
	// Read consumes exactly one frame: concatenated frames (the sketch
	// stream) read back one after another, then a clean EOF-truncation.
	r := bytes.NewReader(append(append([]byte(nil), valid...), valid...))
	for i := 0; i < 2; i++ {
		if _, err := Read(r, testMagic, 3, 1<<20); err != nil {
			t.Fatalf("frame %d of a concatenation: %v", i, err)
		}
	}
	if _, err := Read(r, testMagic, 3, 1<<20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read past the last frame: %v, want ErrTruncated", err)
	}
}

// TestReadForgedLengthDoesNotPreallocate feeds Read a tiny body whose
// header declares a multi-GiB length — the shape of a remote-OOM attempt
// against the HTTP import endpoints. The read must fail as truncated
// after consuming the real bytes, without committing the declared
// allocation up front.
func TestReadForgedLengthDoesNotPreallocate(t *testing.T) {
	forged := validFrame(t, []byte("short body"))
	binary.LittleEndian.PutUint64(forged[12:20], 3<<30)

	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(forged),
		"unsized": struct{ io.Reader }{bytes.NewReader(forged)},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Read(r, testMagic, 3, 4<<30)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: Read allocated %d bytes for a 14-byte body declaring 3 GiB", name, grew)
		}
	}
}

// TestReadLargePayloadIsExact reads a payload past the initial growth
// capacity both ways a payload arrives: from a source that reports its
// unread length (one exact allocation) and from one that does not (two
// grow rounds). Either way it comes back whole, in a slice with no slack.
func TestReadLargePayloadIsExact(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 1<<20+123)
	framed := validFrame(t, payload)
	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(framed),
		"unsized": struct{ io.Reader }{bytes.NewReader(framed)},
	} {
		got, err := Read(r, testMagic, 3, 4<<30)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: round trip of %d bytes: %d bytes back, err %v", name, len(payload), len(got), err)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: payload slice has cap %d for len %d", name, cap(got), len(got))
		}
	}
}

func FuzzRead(f *testing.F) {
	valid := validFrame(f, []byte(`{"seq":1}`+"\n"))
	f.Add(valid)
	f.Add(valid[:12])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+2] ^= 0x10
	f.Add(flipped)
	forged := append([]byte(nil), valid...)
	forged[14], forged[15], forged[16] = 0xff, 0xff, 0xff
	f.Add(forged)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Read(bytes.NewReader(data), testMagic, 3, 1<<24)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Whatever Read accepts, Write reproduces byte for byte.
		var re bytes.Buffer
		if err := Write(&re, testMagic, 3, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatalf("accepted frame does not re-encode to its own bytes")
		}
	})
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failed write leaves the previous file and no temp file behind.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-writ")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write replaced the file with %q", got)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q after a successful write", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the artifact", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestPruneOldest(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	write := func(name string, size int, age time.Duration) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, base.Add(age), base.Add(age)); err != nil {
			t.Fatal(err)
		}
	}
	// Modification time decides, not the name; other extensions and
	// directories are neither counted nor touched.
	write("c.seg", 100, 0)
	write("a.seg", 100, time.Minute)
	write("b.seg", 100, 2*time.Minute)
	write("d.seg", 100, 3*time.Minute)
	write("huge.other", 10_000, 0)
	if err := os.Mkdir(filepath.Join(dir, "sub.seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if n := PruneOldest(dir, ".seg", 400); n != 0 {
		t.Fatalf("pruned %d files from a directory within budget", n)
	}
	if n := PruneOldest(dir, ".seg", 250); n != 2 {
		t.Fatalf("pruned %d files, want the 2 oldest", n)
	}
	var left []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if got, want := fmt.Sprint(left), "[b.seg d.seg huge.other sub.seg]"; got != want {
		t.Fatalf("left %s, want %s", got, want)
	}
	if n := PruneOldest(filepath.Join(dir, "missing"), ".seg", 0); n != 0 {
		t.Fatalf("pruned %d files from a missing directory", n)
	}
}
