package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// TestSketchBytesGolden pins the SketchVersion 2 bytes of three
// fixed-seed sketches — PRIMA, IMM (which also writes its LB) and the
// degenerate all-nodes instance — through both the .wms codec and the
// WMSSTRM entry writer. It pins sampler and codec together: a change to
// the RR sampler's stream or a θ rule re-records the sampled hashes,
// while TestSketchCodecBytesGolden pins the codec alone and must not
// move then. A deliberate format change bumps SketchVersion and
// re-records both.
func TestSketchBytesGolden(t *testing.T) {
	g := testGraph(t)
	one := rrset.Options{Workers: 1}
	cases := []struct {
		name      string
		sk        *rrset.Sketch
		wms, strm string
	}{
		{"prima", prima.BuildSketch(g, []int{10, 5}, one, stats.NewRNG(1)),
			"86fc295cfb5d2ba2540ad43bbdcf5fbf6a074b4216da2177ef98e470461d85d8",
			"8dd042162a734fdb6e8e23175165225279338a98c18c1750ff8dc23c272c5e27"},
		{"imm", imm.BuildSketch(g, 8, one, stats.NewRNG(2)),
			"99cf590e691c7ed82235a71e351fb78d7b8e67a9e94a42d0cd206bf566bebf7f",
			"33f0f7086159aa3df756f4a6805056f6ded84f313a1deb6d33dcdf86df0ff62e"},
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

// TestSketchCodecBytesGolden pins the codec alone: the sketch is
// assembled from fixed sets (no sampler, no RNG) and an adopted greedy
// selection, so these hashes move only when a .wms or WMSSTRM byte does.
// TestSketchBytesGolden's sampled sketches also move when the sampler's
// stream does.
func TestSketchCodecBytesGolden(t *testing.T) {
	const n, sets = 60, 400
	x := uint32(2024)
	next := func() int { x = x*1664525 + 1013904223; return int(x >> 8) }
	var members []graph.NodeID
	offsets := []int64{0}
	for i := 0; i < sets; i++ {
		start, size := len(members), 1+next()%5
	fill:
		for len(members)-start < size {
			v := graph.NodeID(next() % n * (next() % n) / n)
			for _, m := range members[start:] {
				if m == v {
					continue fill
				}
			}
			members = append(members, v)
		}
		offsets = append(offsets, int64(len(members)))
	}
	col, err := rrset.Restore(graph.Line(n, 1), members, offsets)
	if err != nil {
		t.Fatal(err)
	}
	sk := &rrset.Sketch{Family: imm.Family, Col: col, K: 9, Phase1: 321, LB: 4.5}
	if err := sk.AdoptSelection(col.Select(sk.K)); err != nil {
		t.Fatal(err)
	}
	var wms, strm bytes.Buffer
	if err := EncodeSketch(&wms, sk); err != nil {
		t.Fatal(err)
	}
	if err := WriteSketchStreamEntry(&strm, "golden", sk); err != nil {
		t.Fatal(err)
	}
	const (
		wantWMS  = "47af5899096daa16da91bc74139b81cc6f559a74119c435099d20a81ae1de2e7"
		wantStrm = "89b48e1ef20e06aaa3112b7624d23a367ce54fdbb0f6339c176ffee1b3c79c22"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256(wms.Bytes())); got != wantWMS {
		t.Errorf(".wms sha256 %s, want %s", got, wantWMS)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(strm.Bytes())); got != wantStrm {
		t.Errorf("stream entry sha256 %s, want %s", got, wantStrm)
	}
}
