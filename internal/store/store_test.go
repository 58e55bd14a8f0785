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

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
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
	sk := prima.BuildSketch(g, []int{10, 5}, prima.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSketch(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(*prima.Sketch)
	if !ok {
		t.Fatalf("decoded %T", decoded)
	}
	want, have := sk.Select(), got.Select()
	if !reflect.DeepEqual(want, have) {
		t.Errorf("restored sketch selects differently:\nwant %+v\nhave %+v", want, have)
	}
}

func TestSketchRoundTripIMM(t *testing.T) {
	g := testGraph(t)
	sk := imm.BuildSketch(g, 8, imm.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSketch(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(*imm.Sketch)
	if !ok {
		t.Fatalf("decoded %T", decoded)
	}
	want, have := sk.Select(), got.Select()
	if !reflect.DeepEqual(want, have) {
		t.Errorf("restored sketch selects differently:\nwant %+v\nhave %+v", want, have)
	}
}

func TestSketchRoundTripDegenerate(t *testing.T) {
	// k >= n: the sketch has no collection, only the all-nodes marker.
	g := graph.FromEdges(4, [][3]float64{{0, 1, 0.5}, {1, 2, 0.5}})
	sk := imm.BuildSketch(g, 10, imm.Options{}, stats.NewRNG(1))
	var buf bytes.Buffer
	if err := EncodeSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSketch(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	want, have := sk.Select(), decoded.(*imm.Sketch).Select()
	if !reflect.DeepEqual(want, have) {
		t.Errorf("degenerate sketch: want %+v, have %+v", want, have)
	}
}

func TestEncodeSketchRejectsUnknownType(t *testing.T) {
	if err := EncodeSketch(&bytes.Buffer{}, 42); err == nil {
		t.Fatal("encoded an int as a sketch")
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
	sk := imm.BuildSketch(g, 4, imm.Options{}, stats.NewRNG(1))
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
	sk := prima.BuildSketch(g, []int{6}, prima.Options{}, stats.NewRNG(1))
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
	sk := imm.BuildSketch(g, 4, imm.Options{}, stats.NewRNG(1))
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
// whose set size is near 2^64: the decoder must answer ErrCorrupt, not
// wrap the offset accumulator negative and panic in make().
func TestDecodeSketchForgedSizeOverflow(t *testing.T) {
	g := graph.FromEdges(3, [][3]float64{{0, 1, 0.5}})
	var p payloadWriter
	p.uvarint(familyIMM)  // family
	p.uvarint(1)          // k
	p.uvarint(0)          // phase1
	p.float64(1)          // lb
	p.uvarint(0)          // allNodesN
	p.uvarint(1)          // collection present
	p.uvarint(1)          // one set
	p.uvarint(1<<63 + 42) // forged huge size
	var buf bytes.Buffer
	if err := writeFrame(&buf, SketchMagic, p.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSketch(&buf, g); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged size: err = %v, want ErrCorrupt", err)
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
	sk := imm.BuildSketch(g, 4, imm.Options{}, stats.NewRNG(1))
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
	sk := prima.BuildSketch(g, []int{5, 3}, prima.Options{}, stats.NewRNG(1))
	if err := s.SaveSketch(id, "key1", sk); err != nil {
		t.Fatal(err)
	}
	got := s.LoadSketch(id, "key1", g, 0)
	if got == nil {
		t.Fatal("miss after spill")
	}
	if !reflect.DeepEqual(sk.Select(), got.(*prima.Sketch).Select()) {
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
	sk := prima.BuildSketch(g, []int{20, 10}, prima.Options{Eps: 0.3}, stats.NewRNG(1))
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
	sk := prima.BuildSketch(g, []int{5}, prima.Options{}, stats.NewRNG(1))
	// The memoised selection (12 bytes per seed of the budget ceiling) is
	// priced before it exists, so the cost a cache entry was inserted at
	// still holds after its first Select.
	want := 256 + sk.Col.ResidentBytes() + 12*int64(sk.MaxBudget)
	if c := SketchCost(sk); c != want {
		t.Errorf("prima sketch cost = %d, want %d", c, want)
	}
	sk.Select()
	if c := SketchCost(sk); c != want {
		t.Errorf("prima sketch cost after Select = %d, want %d", c, want)
	}
	isk := imm.BuildSketch(g, 7, imm.Options{}, stats.NewRNG(2))
	if c, want := SketchCost(isk), 256+isk.Col.ResidentBytes()+12*7; c != want {
		t.Errorf("imm sketch cost = %d, want %d", c, want)
	}
	if c := SketchCost(prima.BuildSketch(g, []int{g.N()}, prima.Options{}, stats.NewRNG(3))); c != 256 {
		t.Errorf("degenerate sketch cost = %d, want floor (it holds no memo)", c)
	}
	if c := SketchCost("not a sketch"); c != 256 {
		t.Errorf("unknown type cost = %d, want floor", c)
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
	_, err := readFrame(bytes.NewReader(frame.Bytes()), GraphMagic)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("readFrame allocated %d bytes for a 10-byte body declaring 3 GiB", grew)
	}

	// A declared length over the format bound is still rejected outright.
	frame.Reset()
	frame.WriteString(GraphMagic)
	binary.LittleEndian.PutUint32(word[:4], Version)
	frame.Write(word[:4])
	binary.LittleEndian.PutUint64(word[:], uint64(5<<30))
	frame.Write(word[:])
	if _, err := readFrame(bytes.NewReader(frame.Bytes()), GraphMagic); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized declared payload: err = %v, want ErrCorrupt", err)
	}
}
