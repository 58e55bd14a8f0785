// Package frame is the one reader and writer of the container every
// welmaxd artifact travels in — .wmg graphs, .wms sketches, WMSSTRM
// sketch-stream entries, .wsr sweep results, .wmj journal and .wmt
// trace segments: an 8-byte magic, a uint32 format version, a uint64
// payload length, the payload, and a CRC-32C of the payload, all
// little-endian. What the payload means is the caller's business; that
// every field is verified on read, that a forged length cannot force an
// allocation, and that a file only ever appears complete is this
// package's. It also owns the two file idioms those artifacts share:
// write-to-temp-then-rename and delete-oldest-until-under-budget.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Typed rejection modes, distinguishable with errors.Is so callers (and
// the corrupt-input tests) can tell them apart.
var (
	// ErrBadMagic reports input that is not the expected format at all.
	ErrBadMagic = errors.New("frame: bad magic")
	// ErrBadVersion reports a well-formed frame of an unsupported version.
	ErrBadVersion = errors.New("frame: unsupported format version")
	// ErrChecksum reports a payload whose CRC does not match.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrTruncated reports a frame that ends early.
	ErrTruncated = errors.New("frame: truncated")
	// ErrCorrupt reports a structurally impossible frame: here, a
	// declared payload length over the reader's bound. Payload codecs
	// reuse it for a body that passed the checksum but decodes to an
	// inconsistent structure (a writer bug or a forgery, not bit rot).
	ErrCorrupt = errors.New("frame: corrupt payload")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is magic (8) + version (4) + payload length (8).
const headerLen = 20

// Write writes one framed payload. magic must be 8 bytes.
func Write(w io.Writer, magic string, version uint32, payload []byte) error {
	var hdr [headerLen]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(sum[:])
	return err
}

// Read reads and verifies one framed payload of the given magic and
// version, rejecting a declared length over maxPayload outright.
func Read(r io.Reader, magic string, version uint32, maxPayload uint64) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrBadMagic, hdr[:8], magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != version {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrBadVersion, v, version)
	}
	size := binary.LittleEndian.Uint64(hdr[12:20])
	if size > maxPayload {
		return nil, fmt.Errorf("%w: declared payload of %d bytes", ErrCorrupt, size)
	}
	payload, err := readPayload(r, size)
	if err != nil {
		return nil, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrTruncated, err)
	}
	want := binary.LittleEndian.Uint32(sum[:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrChecksum, got, want)
	}
	return payload, nil
}

// readPayload reads the size-byte payload that follows a verified
// header. When r can say how many bytes it has left — Len on in-memory
// readers, size minus offset on a regular file — the payload is
// allocated once, exactly, and a declared length the source cannot hold
// is rejected before any allocation. Otherwise (HTTP bodies, buffered
// stream readers) the buffer grows as bytes actually arrive instead of
// trusting the declared size: a 20-byte request forging a multi-GiB
// length must not commit gigabytes of zeroed memory before the short
// read is even detected. Growth is geometric (amortized O(size)
// copying) but capped at the declared size, so allocation stays within
// ~2x of the bytes actually received and an honest payload's final
// slice is exact — no doubled backing array outlives the read.
func readPayload(r io.Reader, size uint64) ([]byte, error) {
	if left, ok := unread(r); ok {
		if size > uint64(left) {
			return nil, fmt.Errorf("%w: payload: %d bytes declared, %d left in the source", ErrTruncated, size, left)
		}
		payload := make([]byte, size)
		if n, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: payload: read %d of %d bytes: %v", ErrTruncated, n, size, err)
		}
		return payload, nil
	}
	const initialPayloadCap = 512 << 10
	payload := make([]byte, min(size, initialPayloadCap))
	read := 0
	for {
		n, err := io.ReadFull(r, payload[read:])
		read += n
		if err != nil {
			return nil, fmt.Errorf("%w: payload: read %d of %d bytes: %v", ErrTruncated, read, size, err)
		}
		if uint64(len(payload)) == size {
			return payload, nil
		}
		grown := make([]byte, min(size, 2*uint64(len(payload))))
		copy(grown, payload)
		payload = grown
	}
}

// unread reports how many bytes r has left, when it can tell.
func unread(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		info, err := r.Stat()
		if err != nil || !info.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return info.Size() - off, true
	}
	return 0, false
}

// WriteFileAtomic writes a file via a temp file in the same directory
// plus rename, so readers and boot-time scans only ever see complete
// files (a crashed daemon never leaves a half-written artifact a
// restart would trust).
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// PruneOldest deletes the least recently modified files named *ext in
// dir until those that remain fit maxBytes, and returns how many it
// removed. Concurrent callers on one directory must serialize.
func PruneOldest(dir, ext string, maxBytes int64) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	type file struct {
		path  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{
			path:  filepath.Join(dir, e.Name()),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
		total += info.Size()
	}
	// Stable over ReadDir's name order: files whose timestamps tie (file
	// systems stamp at clock-tick granularity) go in name order, which
	// for sequence-named segments is still oldest first.
	sort.SliceStable(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	removed := 0
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			removed++
		}
	}
	return removed
}
