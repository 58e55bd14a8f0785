package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// TestSketchBytesGolden pins the SketchVersion 2 bytes of three
// fixed-seed sketches — PRIMA, IMM (which also writes its LB) and the
// degenerate all-nodes instance — through both the .wms codec and the
// WMSSTRM entry writer. A refactor of the sketch types or the codec must
// leave every spill and every shipped stream byte-identical; a deliberate
// format change bumps SketchVersion and re-records these hashes.
func TestSketchBytesGolden(t *testing.T) {
	g := testGraph(t)
	one := rrset.Options{Workers: 1}
	cases := []struct {
		name      string
		sk        *rrset.Sketch
		wms, strm string
	}{
		{"prima", prima.BuildSketch(g, []int{10, 5}, one, stats.NewRNG(1)),
			"38db048103bc4db0700736659dfed6f60ce83a60b04fa3868c160c73e7cd834b",
			"ad0172bdc1b3db3e6faa5f1fb6bea6cf6acbfaea243ad2532820a76c8aef8197"},
		{"imm", imm.BuildSketch(g, 8, one, stats.NewRNG(2)),
			"635d419764947ef6fb556618473d1a6580edad342c9e317762a27527b49e0ff4",
			"6989191900a37570eacc4faf7b7daf56357c9ecfa6d6687e6adae2d2a909425a"},
		{"all-nodes", imm.BuildSketch(g, g.N(), one, stats.NewRNG(3)),
			"cfeb30c0abd9315d5d5d29f3c5a1e3d91e3c96d585483e9050a504c89e22f3e7",
			"a27246475ea876a8fbde4bb8e48dbe4c679e5ca8a3cf7a99c9e8d892e4de16ea"},
	}
	for _, c := range cases {
		var wms, strm bytes.Buffer
		if err := EncodeSketch(&wms, c.sk); err != nil {
			t.Fatal(err)
		}
		if err := WriteSketchStreamEntry(&strm, "golden", c.sk); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(wms.Bytes())); got != c.wms {
			t.Errorf("%s: .wms sha256 %s, want %s", c.name, got, c.wms)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(strm.Bytes())); got != c.strm {
			t.Errorf("%s: stream entry sha256 %s, want %s", c.name, got, c.strm)
		}
	}
}
