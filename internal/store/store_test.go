package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// testGraph builds a small but non-trivial graph with heterogeneous
// probabilities.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.BarabasiAlbert(200, 3, stats.NewRNG(7))
	return g.WeightedCascade()
}

func graphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: %v vs %v", a, b)
	}
	ai, at, ap := a.CSR()
	bi, bt, bp := b.CSR()
	if !reflect.DeepEqual(ai, bi) || !reflect.DeepEqual(at, bt) || !reflect.DeepEqual(ap, bp) {
		t.Fatal("out-CSR arrays differ after round-trip")
	}
	// The rebuilt in-adjacency must agree too.
	for v := graph.NodeID(0); int(v) < a.N(); v++ {
		as, aps := a.InEdges(v)
		bs, bps := b.InEdges(v)
		if !reflect.DeepEqual(as, bs) || !reflect.DeepEqual(aps, bps) {
			t.Fatalf("in-edges of %d differ", v)
		}
		if !reflect.DeepEqual(a.InEdgePositions(v), b.InEdgePositions(v)) {
			t.Fatalf("in-edge positions of %d differ", v)
		}
		if a.InSkip(v) != b.InSkip(v) {
			t.Fatalf("skip factor of %d differs: %v vs %v", v, a.InSkip(v), b.InSkip(v))
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := EncodeGraph(&buf, "ba-200", g); err != nil {
		t.Fatal(err)
	}
	name, got, err := DecodeGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "ba-200" {
		t.Errorf("name = %q", name)
	}
	graphsEqual(t, g, got)
	if GraphID(g) != GraphID(got) {
		t.Error("content id changed across round-trip")
	}
	// The skip table is not stored; decoding must recompute it, hubs
	// included.
	skips := 0
	for v := graph.NodeID(0); int(v) < got.N(); v++ {
		if got.InSkip(v) != 0 {
			skips++
		}
	}
	if skips == 0 {
		t.Error("decoded weighted-cascade graph has no skip-sampled neighbourhood")
	}
}

func TestGraphIDContentAddressing(t *testing.T) {
	g := testGraph(t)
	id := GraphID(g)
	if len(id) != 17 || id[0] != 'g' {
		t.Fatalf("id = %q, want g + 16 hex chars", id)
	}
	// Same content, independent build: same id.
	if id2 := GraphID(graph.BarabasiAlbert(200, 3, stats.NewRNG(7)).WeightedCascade()); id2 != id {
		t.Errorf("identical content hashed differently: %q vs %q", id2, id)
	}
	// Different topology: different id.
	if id3 := GraphID(graph.BarabasiAlbert(200, 3, stats.NewRNG(8)).WeightedCascade()); id3 == id {
		t.Error("different topology collided")
	}
	// Same topology, different probabilities: different id.
	if id4 := GraphID(graph.BarabasiAlbert(200, 3, stats.NewRNG(7)).UniformProb(0.1)); id4 == id {
		t.Error("different probabilities collided")
	}
}

func TestSketchRoundTripPrima(t *testing.T) {
	g := testGraph(t)
	sk := prima.BuildSketch(g, []int{10, 5}, rrset.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSketch(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Family != prima.Family {
		t.Fatalf("decoded family %q", got.Family)
	}
	want, have := sk.Select(), got.Select()
	if !reflect.DeepEqual(want, have) {
		t.Errorf("restored sketch selects differently:\nwant %+v\nhave %+v", want, have)
	}
}

func TestSketchRoundTripIMM(t *testing.T) {
	g := testGraph(t)
	sk := imm.BuildSketch(g, 8, rrset.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSketch(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Family != imm.Family || got.LB != sk.LB {
		t.Fatalf("decoded family %q, LB %g; want %q, %g", got.Family, got.LB, imm.Family, sk.LB)
	}
	want, have := sk.Select(), got.Select()
	if !reflect.DeepEqual(want, have) {
		t.Errorf("restored sketch selects differently:\nwant %+v\nhave %+v", want, have)
	}
}

func TestSketchRoundTripDegenerate(t *testing.T) {
	// k >= n: the sketch has no collection, only the all-nodes marker.
	g := graph.FromEdges(4, [][3]float64{{0, 1, 0.5}, {1, 2, 0.5}})
	sk := imm.BuildSketch(g, 10, rrset.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSketch(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	want, have := sk.Select(), decoded.Select()
	if !reflect.DeepEqual(want, have) {
		t.Errorf("degenerate sketch: want %+v, have %+v", want, have)
	}
}

// corrupt returns a fresh copy of b with one transformation applied.
func encodeGraphBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeGraph(&buf, "x", g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeGraphCorruptInputs(t *testing.T) {
	g := testGraph(t)
	good := encodeGraphBytes(t, g)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-2] }, ErrTruncated},
		{"flipped payload bit", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[25] ^= 0x40
			return c
		}, ErrChecksum},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, ErrBadMagic},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[8:12], Version+1)
			return c
		}, ErrBadVersion},
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeGraph(bytes.NewReader(tc.mutate(good)))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}

	// A sketch frame fed to the graph decoder is a magic mismatch.
	sk := imm.BuildSketch(g, 4, rrset.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeGraph(&buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("sketch frame as graph: err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeSketchCorruptInputs(t *testing.T) {
	g := testGraph(t)
	sk := prima.BuildSketch(g, []int{6}, rrset.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := DecodeSketch(bytes.NewReader(good[:30]), g); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-6] ^= 0x01
	if _, err := DecodeSketch(bytes.NewReader(flipped), g); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped bit: %v", err)
	}
	// A sketch decoded against the wrong (smaller) graph must fail its
	// member validation rather than produce an index out of range later.
	small := graph.FromEdges(2, [][3]float64{{0, 1, 0.5}})
	if _, err := DecodeSketch(bytes.NewReader(good), small); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong graph: %v", err)
	}
}

func TestStoreGraphLifecycle(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	if err := s.SaveGraph(id, "net", g); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second save of the same id is a no-op, not an error.
	if err := s.SaveGraph(id, "net", g); err != nil {
		t.Fatal(err)
	}
	got := s.LoadGraphs()
	if len(got) != 1 || got[0].ID != id || got[0].Name != "net" {
		t.Fatalf("loaded %+v", got)
	}
	graphsEqual(t, g, got[0].Graph)

	// Spill a sketch for the graph, then delete the graph: both artifacts
	// must go.
	sk := imm.BuildSketch(g, 4, rrset.Options{}, stats.NewRNG(1))
	if err := s.SaveSketch(id, "key1", sk); err != nil {
		t.Fatal(err)
	}
	if !s.HasSketch(id, "key1") {
		t.Fatal("spilled sketch not found")
	}
	s.DeleteGraph(id)
	if len(s.LoadGraphs()) != 0 {
		t.Error("graph survived deletion")
	}
	if s.HasSketch(id, "key1") {
		t.Error("sketch survived its graph's deletion")
	}
}

// TestDecodeSketchForgedSizeOverflow crafts a .wms with a valid CRC
// whose set and member counts are near 2^64: the decoder must answer
// ErrCorrupt before sizing any allocation by them, not wrap a byte
// count and panic in make().
func TestDecodeSketchForgedSizeOverflow(t *testing.T) {
	g := graph.FromEdges(3, [][3]float64{{0, 1, 0.5}})
	for _, counts := range [][2]uint64{{1<<63 + 42, 1}, {1, 1<<63 + 42}, {1<<62 + 1, 0}} {
		var p payloadWriter
		p.uvarint(familyIMM) // family
		p.uvarint(1)         // k
		p.uvarint(0)         // phase1
		p.float64(1)         // lb
		p.uvarint(0)         // allNodes
		p.uvarint(1)         // collection present
		p.uvarint(0)         // empty selection
		p.uvarint(counts[0]) // forged set count
		p.uvarint(counts[1]) // forged member count
		p.buf.Write(make([]byte, 16))
		var buf bytes.Buffer
		if err := frame.Write(&buf, SketchMagic, SketchVersion, p.buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSketch(&buf, g); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged counts %v: err = %v, want ErrCorrupt", counts, err)
		}
	}
}

// forgedSketch is a PRIMA .wms payload spelled out field by field, so a
// test can break one field and re-frame it with a valid CRC.
type forgedSketch struct {
	maxBudget, phase1 uint64
	order             []uint32
	covered           []uint64
	numSets, total    uint64
	sizes, members    []uint32
	trailing          []byte
}

func forgeFrom(sk *rrset.Sketch) forgedSketch {
	sel := sk.Selection()
	f := forgedSketch{
		maxBudget: uint64(sk.K),
		phase1:    uint64(sk.Phase1),
		numSets:   uint64(sk.Col.Len()),
		total:     uint64(len(sk.Col.Members())),
	}
	for i, v := range sel.Order {
		f.order = append(f.order, uint32(v))
		f.covered = append(f.covered, uint64(sel.Covered[i]))
	}
	offsets := sk.Col.Offsets()
	for i := 0; i < sk.Col.Len(); i++ {
		f.sizes = append(f.sizes, uint32(offsets[i+1]-offsets[i]))
	}
	for _, v := range sk.Col.Members() {
		f.members = append(f.members, uint32(v))
	}
	return f
}

// clone deep-copies f so a case can mutate its slices freely.
func (f forgedSketch) clone() forgedSketch {
	f.order = append([]uint32(nil), f.order...)
	f.covered = append([]uint64(nil), f.covered...)
	f.sizes = append([]uint32(nil), f.sizes...)
	f.members = append([]uint32(nil), f.members...)
	return f
}

func (f forgedSketch) frame(t *testing.T) []byte {
	t.Helper()
	var p payloadWriter
	p.uvarint(familyPrima)
	p.uvarint(f.maxBudget)
	p.uvarint(f.phase1)
	p.uvarint(0) // allNodes
	p.uvarint(1) // collection present
	p.uvarint(uint64(len(f.order)))
	for _, v := range f.order {
		p.buf.Write(binary.LittleEndian.AppendUint32(nil, v))
	}
	for _, c := range f.covered {
		p.buf.Write(binary.LittleEndian.AppendUint64(nil, c))
	}
	p.uvarint(f.numSets)
	p.uvarint(f.total)
	for _, v := range f.sizes {
		p.buf.Write(binary.LittleEndian.AppendUint32(nil, v))
	}
	for _, v := range f.members {
		p.buf.Write(binary.LittleEndian.AppendUint32(nil, v))
	}
	p.buf.Write(f.trailing)
	var buf bytes.Buffer
	if err := frame.Write(&buf, SketchMagic, SketchVersion, p.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSketchForgedPayloads feeds the decoder hand-built v2
// payloads under a valid CRC, each wrong in exactly one way: every one
// must be ErrCorrupt, never a panic and never an adopted selection.
func TestDecodeSketchForgedPayloads(t *testing.T) {
	g := testGraph(t)
	sk := prima.BuildSketch(g, []int{8, 3}, rrset.Options{}, stats.NewRNG(1))
	base := forgeFrom(sk)
	var want bytes.Buffer
	if err := EncodeSketch(&want, sk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.frame(t), want.Bytes()) {
		t.Fatal("the forging helper does not spell the encoder's layout")
	}
	if _, err := DecodeSketch(bytes.NewReader(base.frame(t)), g); err != nil {
		t.Fatalf("unmodified forge rejected: %v", err)
	}

	// A greedy-looking order whose gains rise: the top seed, then the
	// least-covering node outside the order, then the rest of the greedy
	// prefix — with a covered vector that honestly counts it.
	rising := base.clone()
	inOrder := map[uint32]bool{}
	for _, v := range base.order {
		inOrder[v] = true
	}
	low := -1
	for v := 0; v < g.N(); v++ {
		if !inOrder[uint32(v)] && (low < 0 || len(sk.Col.Covering(graph.NodeID(v))) < len(sk.Col.Covering(graph.NodeID(low)))) {
			low = v
		}
	}
	rising.order = append([]uint32{base.order[0], uint32(low)}, base.order[1:len(base.order)-1]...)
	ids := make([]graph.NodeID, len(rising.order))
	for i, v := range rising.order {
		ids[i] = graph.NodeID(v)
	}
	for i, c := range sk.Col.PrefixCoverage(ids) {
		rising.covered[i] = uint64(c)
	}
	if rising.covered[1]-rising.covered[0] >= rising.covered[2]-rising.covered[1] {
		t.Fatal("test setup: the forged order's gains do not rise")
	}

	cases := map[string]func(f *forgedSketch){
		"set count beyond the bytes":    func(f *forgedSketch) { f.numSets = 1 << 40 },
		"member count beyond the bytes": func(f *forgedSketch) { f.total = 1 << 40 },
		"sizes overshoot member count":  func(f *forgedSketch) { f.sizes[0]++ },
		"sizes undershoot member count": func(f *forgedSketch) { f.sizes[len(f.sizes)-1]-- },
		"member out of range":           func(f *forgedSketch) { f.members[len(f.members)/2] = uint32(g.N()) },
		"member negative as int32":      func(f *forgedSketch) { f.members[0] = 1 << 31 },
		"selection too short": func(f *forgedSketch) {
			f.order, f.covered = f.order[:len(f.order)-1], f.covered[:len(f.covered)-1]
		},
		"selection too long": func(f *forgedSketch) {
			f.order, f.covered = append(f.order, uint32(low)), append(f.covered, f.covered[len(f.covered)-1])
		},
		"repeated seed":      func(f *forgedSketch) { f.order[2] = f.order[1] },
		"out-of-range seed":  func(f *forgedSketch) { f.order[1] = uint32(g.N()) },
		"increasing gains":   func(f *forgedSketch) { *f = rising.clone() },
		"one trailing byte":  func(f *forgedSketch) { f.trailing = []byte{0} },
		"four trailing zero": func(f *forgedSketch) { f.trailing = make([]byte, 4) },
	}
	for i := range base.covered {
		cases[fmt.Sprintf("covered[%d] one high", i)] = func(f *forgedSketch) { f.covered[i]++ }
		cases[fmt.Sprintf("covered[%d] one low", i)] = func(f *forgedSketch) { f.covered[i]-- }
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			f := base.clone()
			mutate(&f)
			if _, err := DecodeSketch(bytes.NewReader(f.frame(t)), g); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLoadGraphsReAddressesMismatchedNames drops a graph under a
// non-canonical filename: boot must rename it to its content id so
// DeleteGraph can find it later (otherwise the graph would resurrect on
// every restart after an API delete).
func TestLoadGraphsReAddressesMismatchedNames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	alias := filepath.Join(dir, "graphs", "hand-dropped"+GraphExt)
	if err := SaveGraphFile(alias, "net", g); err != nil {
		t.Fatal(err)
	}
	got := s.LoadGraphs()
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := os.Stat(alias); !os.IsNotExist(err) {
		t.Error("alias file survived re-addressing")
	}
	s.DeleteGraph(id)
	if len(s.LoadGraphs()) != 0 {
		t.Error("graph under a stale filename survived deletion")
	}
}

func TestStoreCorruptArtifactsAreSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	if err := s.SaveGraph(id, "net", g); err != nil {
		t.Fatal(err)
	}
	// A truncated second artifact must not prevent loading the first.
	bad := filepath.Join(dir, "graphs", "gdeadbeef"+GraphExt)
	if err := os.WriteFile(bad, []byte("WMGRAPH\x00junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := s.LoadGraphs()
	if len(got) != 1 || got[0].ID != id {
		t.Fatalf("loaded %+v", got)
	}
	if s.Stats().LoadErrors != 1 {
		t.Errorf("load errors = %d, want 1", s.Stats().LoadErrors)
	}

	// Same for sketches: a corrupt spill reads as a miss, counts a load
	// error, and is removed so the next rebuild replaces it.
	sk := imm.BuildSketch(g, 4, rrset.Options{}, stats.NewRNG(1))
	if err := s.SaveSketch(id, "key1", sk); err != nil {
		t.Fatal(err)
	}
	path := s.sketchPath(id, "key1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.LoadSketch(id, "key1", g, 0); got != nil {
		t.Fatal("corrupt sketch decoded")
	}
	if s.Stats().LoadErrors != 2 {
		t.Errorf("load errors = %d, want 2", s.Stats().LoadErrors)
	}
	if s.HasSketch(id, "key1") {
		t.Error("corrupt sketch file was not removed")
	}
}

func TestStoreSketchTier(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	if s.LoadSketch(id, "key1", g, 0) != nil {
		t.Fatal("hit on empty store")
	}
	sk := prima.BuildSketch(g, []int{5, 3}, rrset.Options{}, stats.NewRNG(1))
	if err := s.SaveSketch(id, "key1", sk); err != nil {
		t.Fatal(err)
	}
	got := s.LoadSketch(id, "key1", g, 0)
	if got == nil {
		t.Fatal("miss after spill")
	}
	if !reflect.DeepEqual(sk.Select(), got.Select()) {
		t.Error("disk round-trip changed the selection")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Spills != 1 || st.LoadErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreSketchBudgetEviction(t *testing.T) {
	// A 1 MB budget with ~2 MB of spills must evict the oldest files.
	s, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	sk := prima.BuildSketch(g, []int{20, 10}, rrset.Options{Eps: 0.3}, stats.NewRNG(1))
	var one bytes.Buffer
	if err := EncodeSketch(&one, sk); err != nil {
		t.Fatal(err)
	}
	// Spill enough copies under distinct keys to exceed the budget.
	copies := int(2<<20/one.Len()) + 2
	for i := 0; i < copies; i++ {
		if err := s.SaveSketch(id, fmt.Sprintf("key%04d", i), sk); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Error("no evictions despite exceeding the disk budget")
	}
	var total int64
	entries, err := os.ReadDir(filepath.Join(s.Dir(), "sketches"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 1<<20 {
		t.Errorf("sketch dir holds %d bytes, budget is %d", total, 1<<20)
	}
}

func TestSketchCost(t *testing.T) {
	g := testGraph(t)
	sk := prima.BuildSketch(g, []int{5}, rrset.Options{}, stats.NewRNG(1))
	// The memoised selection (12 bytes per seed of the budget ceiling) is
	// priced before it exists, so the cost a cache entry was inserted at
	// still holds after its first Select.
	want := 256 + sk.Col.ResidentBytes() + 12*int64(sk.K)
	if c := SketchCost(sk); c != want {
		t.Errorf("prima sketch cost = %d, want %d", c, want)
	}
	sk.Select()
	if c := SketchCost(sk); c != want {
		t.Errorf("prima sketch cost after Select = %d, want %d", c, want)
	}
	isk := imm.BuildSketch(g, 7, rrset.Options{}, stats.NewRNG(2))
	if c, want := SketchCost(isk), 256+isk.Col.ResidentBytes()+12*7; c != want {
		t.Errorf("imm sketch cost = %d, want %d", c, want)
	}
	if c := SketchCost(prima.BuildSketch(g, []int{g.N()}, rrset.Options{}, stats.NewRNG(3))); c != 256 {
		t.Errorf("degenerate sketch cost = %d, want floor (it holds no memo)", c)
	}
}

func TestLoadGraphFileSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)

	bin := filepath.Join(dir, "g.wmg")
	if err := SaveGraphFile(bin, "net", g); err != nil {
		t.Fatal(err)
	}
	got, isBinary, err := LoadGraphFile(bin, false)
	if err != nil {
		t.Fatal(err)
	}
	if !isBinary {
		t.Error("binary file not detected")
	}
	graphsEqual(t, g, got)

	text := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(text, []byte("# comment\n0 1 0.5\n1 2 0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, isBinary, err = LoadGraphFile(text, false)
	if err != nil {
		t.Fatal(err)
	}
	if isBinary {
		t.Error("text file detected as binary")
	}
	if got.N() != 3 || got.M() != 2 {
		t.Errorf("text graph = %v", got)
	}

	if _, _, err := LoadGraphFile(filepath.Join(dir, "missing"), false); err == nil {
		t.Error("missing file: want error")
	}
}

// TestReadFrameForgedLengthDoesNotPreallocate feeds readFrame a tiny
// body whose header declares a near-maxPayload length — the shape of a
// remote-OOM attempt against the HTTP import endpoints. The read must
// fail as truncated after consuming the real bytes, without committing
// the declared (multi-GiB) allocation up front.
func TestReadFrameForgedLengthDoesNotPreallocate(t *testing.T) {
	var frame bytes.Buffer
	frame.WriteString(GraphMagic)
	var word [8]byte
	binary.LittleEndian.PutUint32(word[:4], Version)
	frame.Write(word[:4])
	binary.LittleEndian.PutUint64(word[:], uint64(3<<30)) // forged: 3 GiB declared
	frame.Write(word[:])
	frame.WriteString("short body")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(frame.Bytes()), GraphMagic, Version)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("readFrame allocated %d bytes for a 10-byte body declaring 3 GiB", grew)
	}

	// The same forged header in a file: the reader knows the file's
	// size, so the frame is truncated before any payload allocation —
	// through a bare *os.File and through LoadSketch's stat'ed reader.
	path := filepath.Join(t.TempDir(), "forged"+SketchExt)
	forged := append([]byte(nil), frame.Bytes()...)
	copy(forged, SketchMagic)
	binary.LittleEndian.PutUint32(forged[8:12], SketchVersion)
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = readFrame(f, SketchMagic, SketchVersion)
	runtime.ReadMemStats(&after)
	f.Close()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("forged file: err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("readFrame allocated %d bytes for a %d-byte file declaring 3 GiB", grew, len(forged))
	}
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	if err := os.WriteFile(s.sketchPath("g1", "k"), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	got := s.LoadSketch("g1", "k", g, 0)
	runtime.ReadMemStats(&after)
	if got != nil || s.Stats().LoadErrors != 1 {
		t.Fatalf("forged spill: loaded %v, load errors %d", got, s.Stats().LoadErrors)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("LoadSketch allocated %d bytes for a %d-byte spill declaring 3 GiB", grew, len(forged))
	}

	// A declared length over the format bound is still rejected outright.
	frame.Reset()
	frame.WriteString(GraphMagic)
	binary.LittleEndian.PutUint32(word[:4], Version)
	frame.Write(word[:4])
	binary.LittleEndian.PutUint64(word[:], uint64(5<<30))
	frame.Write(word[:])
	if _, err := readFrame(bytes.NewReader(frame.Bytes()), GraphMagic, Version); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized declared payload: err = %v, want ErrCorrupt", err)
	}
}

// TestLoadSketchOtherVersionIsAPlainMiss: a spill framed at another
// sketch format version (what an older build left) is removed and read
// as a miss, without counting as a load error.
func TestLoadSketchOtherVersionIsAPlainMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	if err := s.SaveSketch(id, "key1", imm.BuildSketch(g, 4, rrset.Options{}, stats.NewRNG(1))); err != nil {
		t.Fatal(err)
	}
	path := s.sketchPath(id, "key1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], SketchVersion-1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.LoadSketch(id, "key1", g, 0); got != nil {
		t.Fatal("a spill of another format version decoded")
	}
	if st := s.Stats(); st.LoadErrors != 0 || st.Hits != 0 {
		t.Errorf("stats = %+v, want no load error and no hit", st)
	}
	if s.HasSketch(id, "key1") {
		t.Error("the old-version spill was not removed")
	}
}

// TestOpenRemovesSpillsOfAnotherKeyFormat: a spill named without the
// current key-format tag — as every spill was before the request seed
// joined the cache key — hashes a key no lookup prints, so Open removes
// it; a tagged spill survives and still loads. DeleteGraph sweeps a
// graph's spills whatever their tag.
func TestOpenRemovesSpillsOfAnotherKeyFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	id := GraphID(g)
	if err := s.SaveSketch(id, "key1", imm.BuildSketch(g, 4, rrset.Options{}, stats.NewRNG(1))); err != nil {
		t.Fatal(err)
	}
	tagged := s.sketchPath(id, "key1")
	raw, err := os.ReadFile(tagged)
	if err != nil {
		t.Fatal(err)
	}
	untagged := func(name string) string {
		path := filepath.Join(dir, "sketches", id+"-"+name+SketchExt)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale := []string{untagged("0123456789abcdef01234567"), untagged("k1-0123456789abcdef01234567")}

	if s, err = Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	for _, path := range stale {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("Open kept %s, a spill of another key format", filepath.Base(path))
		}
	}
	if s.LoadSketch(id, "key1", g, 0) == nil {
		t.Fatal("Open removed the tagged spill")
	}

	old := untagged("0123456789abcdef01234567")
	s.DeleteGraph(id)
	for _, path := range []string{tagged, old} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("DeleteGraph kept %s", filepath.Base(path))
		}
	}
}
