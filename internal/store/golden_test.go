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

// TestSketchBytesGolden pins the SketchVersion 2 bytes of fixed-seed
// sketches — PRIMA, IMM (which also writes its LB) under IC, LT and a
// tighter ε, and the degenerate all-nodes instance at k = n and past n —
// through both the .wms codec and the WMSSTRM entry writer. It pins sampler and codec together: a change to
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
			"cf690e630d832eeacf219c767a600c3761fe01b35148c24e153d51ed50d44d4e",
			"c011da5886d5316b15f0e9344b1bb6d92485c58c6b9d40cd8b374888326c041a"},
		{"imm", imm.BuildSketch(g, 8, one, stats.NewRNG(2)),
			"f2f8f11b81e496ef72bd4523df4189c0a032466248449ab1fb48fdca5e4aa59c",
			"8141896ae6cbdbc1c9f30d89495f80dcacaf5f6a7b04ad78a1371c3309a6fafb"},
		{"all-nodes", imm.BuildSketch(g, g.N(), one, stats.NewRNG(3)),
			"cfeb30c0abd9315d5d5d29f3c5a1e3d91e3c96d585483e9050a504c89e22f3e7",
			"a27246475ea876a8fbde4bb8e48dbe4c679e5ca8a3cf7a99c9e8d892e4de16ea"},
		{"imm-lt", imm.BuildSketch(g, 8, rrset.Options{Workers: 1, Cascade: graph.CascadeLT}, stats.NewRNG(4)),
			"d9bd3c570e6e00f80f3f85ee3402d07d7f46af9f9e772d81a7c1234613b0155d",
			"dc309c039ca34346d6491bb7f71b038f1c1e8cb631515236928ce8bcb1b45112"},
		{"imm-eps0.3", imm.BuildSketch(g, 8, rrset.Options{Workers: 1, Eps: 0.3}, stats.NewRNG(5)),
			"e4bf3062579f3fc8279d1decfa47ad73b831c44cb5762d3e772dafddbbb58a45",
			"5b525d3875d84f3cd4e3d2e40df6e8dcb7deef522bbd23be03450183c0472647"},
		{"imm-past-n", imm.BuildSketch(g, g.N()+3, one, stats.NewRNG(6)),
			"101ace255a49b5a5ec1d7754a4dc7eee51b2acd96f887a826faf53067451cea0",
			"8f26fa07e8fb1ef75aa6792d7c5c48666dc1e55e50be5045658927ecd60b04e3"},
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
