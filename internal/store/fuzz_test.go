package store_test

import (
	"bytes"
	"errors"
	"testing"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
)

// fuzzGraph is the fixed graph fuzzed sketch decodes validate against.
func fuzzGraph() *graph.Graph {
	return graph.ErdosRenyi(30, 90, stats.NewRNG(77)).WeightedCascade()
}

// typedCodecError reports whether err is one of the codec's declared
// rejection modes — the contract the fuzzers enforce: malformed input
// must map to a typed error, never a panic or an untyped surprise.
func typedCodecError(err error) bool {
	return errors.Is(err, store.ErrBadMagic) ||
		errors.Is(err, store.ErrBadVersion) ||
		errors.Is(err, store.ErrChecksum) ||
		errors.Is(err, store.ErrTruncated) ||
		errors.Is(err, store.ErrCorrupt)
}

// mutations derives the standard corrupt variants of a valid encode:
// truncations at interesting boundaries and single bit flips.
func mutations(valid []byte) [][]byte {
	out := [][]byte{valid}
	for _, cut := range []int{0, 7, 8, 12, 19, 20, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			out = append(out, valid[:cut])
		}
	}
	for _, pos := range []int{0, 9, 15, len(valid) / 2, len(valid) - 2} {
		if pos >= 0 && pos < len(valid) {
			flipped := append([]byte(nil), valid...)
			flipped[pos] ^= 0x40
			out = append(out, flipped)
		}
	}
	return out
}

func FuzzDecodeGraph(f *testing.F) {
	var buf bytes.Buffer
	if err := store.EncodeGraph(&buf, "fuzz-seed", fuzzGraph()); err != nil {
		f.Fatal(err)
	}
	for _, seed := range mutations(buf.Bytes()) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, g, err := store.DecodeGraph(bytes.NewReader(data))
		if err != nil {
			if !typedCodecError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must round-trip byte-identically — the
		// structure is internally consistent, not merely non-crashing.
		var re bytes.Buffer
		if err := store.EncodeGraph(&re, name, g); err != nil {
			t.Fatalf("re-encode of accepted graph failed: %v", err)
		}
	})
}

func FuzzDecodeSketch(f *testing.F) {
	g := fuzzGraph()
	psk := prima.BuildSketch(g, []int{3, 2}, rrset.Options{}, stats.NewRNG(1))
	isk := imm.BuildSketch(g, 3, rrset.Options{}, stats.NewRNG(2))
	for _, sk := range []*rrset.Sketch{psk, isk} {
		var buf bytes.Buffer
		if err := store.EncodeSketch(&buf, sk); err != nil {
			f.Fatal(err)
		}
		for _, seed := range mutations(buf.Bytes()) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := store.DecodeSketch(bytes.NewReader(data), g)
		if err != nil {
			if !typedCodecError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := store.EncodeSketch(&re, sk); err != nil {
			t.Fatalf("re-encode of accepted sketch failed: %v", err)
		}
	})
}

// FuzzDecodeSketchPayload fuzzes the sketch payload decoder behind a
// valid frame: each input is framed at SketchVersion with a correct CRC,
// so mutations reach the structure instead of dying at the checksum.
// Every rejection must be a typed codec error, and every accepted
// payload must re-encode to exactly its own bytes.
func FuzzDecodeSketchPayload(f *testing.F) {
	g := fuzzGraph()
	for _, sk := range []*rrset.Sketch{
		prima.BuildSketch(g, []int{3, 2}, rrset.Options{}, stats.NewRNG(1)),
		imm.BuildSketch(g, 3, rrset.Options{}, stats.NewRNG(2)),
		imm.BuildSketch(g, g.N(), rrset.Options{}, stats.NewRNG(3)), // degenerate: no collection
	} {
		var buf bytes.Buffer
		if err := store.EncodeSketch(&buf, sk); err != nil {
			f.Fatal(err)
		}
		payload := buf.Bytes()[20 : buf.Len()-4]
		for _, seed := range mutations(payload) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var framed bytes.Buffer
		if err := frame.Write(&framed, store.SketchMagic, store.SketchVersion, payload); err != nil {
			t.Fatal(err)
		}
		sk, err := store.DecodeSketch(&framed, g)
		if err != nil {
			if !typedCodecError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := store.EncodeSketch(&re, sk); err != nil {
			t.Fatalf("re-encode of accepted sketch failed: %v", err)
		}
		if got := re.Bytes()[20 : re.Len()-4]; !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, got)
		}
	})
}

func FuzzReadSketchStream(f *testing.F) {
	g := fuzzGraph()
	psk := prima.BuildSketch(g, []int{3}, rrset.Options{}, stats.NewRNG(3))
	isk := imm.BuildSketch(g, 2, rrset.Options{}, stats.NewRNG(4))
	var buf bytes.Buffer
	if err := store.WriteSketchStreamEntry(&buf, "key-a", psk); err != nil {
		f.Fatal(err)
	}
	if err := store.WriteSketchStreamEntry(&buf, "key-b", isk); err != nil {
		f.Fatal(err)
	}
	for _, seed := range mutations(buf.Bytes()) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := store.ReadSketchStream(bytes.NewReader(data), g, func(key string, sketch *rrset.Sketch) error {
			return nil
		})
		if n < 0 {
			t.Fatalf("negative entry count %d", n)
		}
		if err != nil && !typedCodecError(err) {
			t.Fatalf("untyped stream error: %v", err)
		}
	})
}
