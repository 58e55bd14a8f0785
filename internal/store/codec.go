// Package store is welmaxd's persistence subsystem: a versioned,
// checksummed binary codec for graphs (.wmg) and built RR sketches
// (.wms), content-addressed graph identifiers, and a disk tier that
// spills completed sketch builds under a data directory so a restarted
// daemon answers its first allocate from a warm path instead of
// regenerating sketches — the dominant cost of every allocation (the
// reason the in-memory cache exists at all). Stable content-addressed
// ids plus serializable sketches are also the foundation sharding needs:
// they are what one backend can hand another.
//
// The package also owns the service's cost accounting: SketchCost
// prices a built sketch's resident bytes (the cache's eviction
// currency), and CostModel calibrates the planners' a-priori cost
// estimates against observed builds — the pricing seam admission
// control charges requests against.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"uicwelfare/internal/frame"
)

// File format: every artifact is one internal/frame container (magic,
// version, length, payload, CRC-32C) whose payload is a varint-packed
// body defined by the graph, sketch and sweep codecs. Every field is
// verified on read: a truncated file, a flipped bit, or a future
// version yields a typed error (never a broken in-memory structure),
// which the cache layers treat as a miss and fall back to a rebuild.
const (
	// GraphMagic opens a .wmg graph file.
	GraphMagic = "WMGRAPH\x00"
	// SketchMagic opens a .wms sketch file.
	SketchMagic = "WMSKTCH\x00"
	// Version is the current format version of the graph (.wmg) and
	// sweep-result (.wsr) codecs.
	Version = 1
	// SketchVersion is the current format version of the sketch codecs
	// (.wms files and WMSSTRM stream entries). It moves on its own so a
	// sketch layout change never strands the persisted graphs: version 2
	// stores the collection as raw 32-bit words and persists the greedy
	// selection. An older spill reads as ErrBadVersion — a miss that the
	// rebuild's spill replaces.
	SketchVersion = 2

	// maxPayload bounds a frame's declared payload so a corrupt length
	// field cannot trigger an absurd allocation before the checksum ever
	// runs (4 GiB is far beyond any sketch the daemon's caps allow).
	maxPayload = 4 << 30
)

// Typed codec errors — the frame package's, under the names callers of
// this package have always matched with errors.Is.
var (
	// ErrBadMagic reports a file that is not the expected format at all.
	ErrBadMagic = frame.ErrBadMagic
	// ErrBadVersion reports a well-formed frame of an unsupported version.
	ErrBadVersion = frame.ErrBadVersion
	// ErrChecksum reports a payload whose CRC does not match.
	ErrChecksum = frame.ErrChecksum
	// ErrTruncated reports a frame that ends early.
	ErrTruncated = frame.ErrTruncated
	// ErrCorrupt reports a payload that passed the checksum but decodes
	// to an inconsistent structure (a writer bug or a deliberate forgery,
	// not random bit rot), or a declared length over maxPayload.
	ErrCorrupt = frame.ErrCorrupt
)

// readFrame reads and verifies one payload framed at the given format
// version, bounded by maxPayload.
func readFrame(r io.Reader, magic string, version uint32) ([]byte, error) {
	return frame.Read(r, magic, version, maxPayload)
}

// payloadWriter packs a frame body: varints for counts and ids, fixed
// 32/64-bit words for floats and for the sketch codec's bulk arrays.
type payloadWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (p *payloadWriter) uvarint(x uint64) {
	n := binary.PutUvarint(p.tmp[:], x)
	p.buf.Write(p.tmp[:n])
}

func (p *payloadWriter) float32(x float32) {
	binary.LittleEndian.PutUint32(p.tmp[:4], math.Float32bits(x))
	p.buf.Write(p.tmp[:4])
}

func (p *payloadWriter) float64(x float64) {
	binary.LittleEndian.PutUint64(p.tmp[:8], math.Float64bits(x))
	p.buf.Write(p.tmp[:8])
}

func (p *payloadWriter) string(s string) {
	p.uvarint(uint64(len(s)))
	p.buf.WriteString(s)
}

// payloadReader unpacks a frame body, turning any overrun into
// ErrCorrupt (the checksum already passed, so a short body is a
// structural inconsistency, not bit rot).
type payloadReader struct {
	rest []byte
}

// uvarint reads one varint in its minimal encoding only: a padded
// encoding (a final 0x00 byte after continuation bytes) is a second
// spelling of the same value, and every accepted payload must re-encode
// to its own bytes.
func (p *payloadReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(p.rest)
	if n <= 0 || (n > 1 && p.rest[n-1] == 0) {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	p.rest = p.rest[n:]
	return x, nil
}

// count reads a varint meant to size an allocation, rejecting values
// that could not possibly fit the remaining body (each counted element
// occupies at least one byte).
func (p *payloadReader) count() (int, error) {
	x, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(p.rest)) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrCorrupt, x, len(p.rest))
	}
	return int(x), nil
}

// words returns the next n fixed-width words as raw bytes, rejecting a
// count the remaining body cannot hold before anyone sizes an
// allocation by it.
func (p *payloadReader) words(n uint64, width int) ([]byte, error) {
	if n > uint64(len(p.rest)/width) {
		return nil, fmt.Errorf("%w: %d words of %d bytes exceed remaining %d bytes", ErrCorrupt, n, width, len(p.rest))
	}
	b := p.rest[:int(n)*width]
	p.rest = p.rest[len(b):]
	return b, nil
}

func (p *payloadReader) float32() (float32, error) {
	if len(p.rest) < 4 {
		return 0, fmt.Errorf("%w: short float32", ErrCorrupt)
	}
	x := math.Float32frombits(binary.LittleEndian.Uint32(p.rest))
	p.rest = p.rest[4:]
	return x, nil
}

func (p *payloadReader) float64() (float64, error) {
	if len(p.rest) < 8 {
		return 0, fmt.Errorf("%w: short float64", ErrCorrupt)
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(p.rest))
	p.rest = p.rest[8:]
	return x, nil
}

func (p *payloadReader) string() (string, error) {
	n, err := p.count()
	if err != nil {
		return "", err
	}
	s := string(p.rest[:n])
	p.rest = p.rest[n:]
	return s, nil
}

func (p *payloadReader) done() error {
	if len(p.rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(p.rest))
	}
	return nil
}
