package store

import (
	"encoding/binary"
	"fmt"
	"io"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
)

// Sketch family tags in the .wms payload.
const (
	familyPrima = 1
	familyIMM   = 2
)

// EncodeSketch writes a built *prima.Sketch or *imm.Sketch as a .wms
// frame at SketchVersion: the family tag, the family's scalar fields,
// the sketch's greedy selection and the RR-set collection as raw words
// (encodeCollection). Encoding forces the selection if no Select has yet
// — a spilled or shipped sketch is always followed by a Select, so the
// work moves rather than grows, and the reloaded copy never re-runs it.
// The graph is deliberately not embedded — a sketch is only meaningful
// next to its graph, and the store keys sketch files by the graph's
// content id, so DecodeSketch takes the resident graph instead.
func EncodeSketch(w io.Writer, sketch any) error {
	var p payloadWriter
	if err := encodeSketchPayload(&p, sketch); err != nil {
		return err
	}
	return frame.Write(w, SketchMagic, SketchVersion, p.buf.Bytes())
}

// encodeSketchPayload packs the frame body shared by the .wms codec and
// the sketch-stream container (which prepends a cache key to it).
func encodeSketchPayload(p *payloadWriter, sketch any) error {
	switch sk := sketch.(type) {
	case *prima.Sketch:
		col, maxBudget, phase1, allNodesN := sk.State()
		p.uvarint(familyPrima)
		p.uvarint(uint64(maxBudget))
		p.uvarint(uint64(phase1))
		p.uvarint(uint64(allNodesN))
		encodeCollection(p, col, sk.Selection())
	case *imm.Sketch:
		col, k, phase1, lb, allNodesN := sk.State()
		p.uvarint(familyIMM)
		p.uvarint(uint64(k))
		p.uvarint(uint64(phase1))
		p.float64(lb)
		p.uvarint(uint64(allNodesN))
		encodeCollection(p, col, sk.Selection())
	default:
		return fmt.Errorf("store: cannot encode sketch type %T", sketch)
	}
	return nil
}

// DecodeSketch reads one .wms frame against the graph it was built for,
// returning a *prima.Sketch or *imm.Sketch indistinguishable from the
// freshly built original: rrset.Restore rebuilds the inverted index and
// re-validates every member against g, and the persisted selection is
// checked against the restored collection before the sketch adopts it.
// The caller is responsible for pairing the right graph — the store
// does so by keying sketch files under the graph's content id.
func DecodeSketch(r io.Reader, g *graph.Graph) (any, error) {
	payload, err := readFrame(r, SketchMagic, SketchVersion)
	if err != nil {
		return nil, err
	}
	p := payloadReader{rest: payload}
	parts, err := parseSketchPayload(&p)
	if err != nil {
		return nil, err
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	// The frame buffer is dead from here on: Restore's index is built
	// while only the decoded arrays are live.
	return parts.build(g)
}

// sketchParts is a parsed sketch payload before it meets its graph: the
// family's scalars, the persisted selection and the collection's arrays.
type sketchParts struct {
	family int
	// budget is the sketch's MaxBudget (PRIMA) or K (IMM).
	budget, phase1, allNodesN int
	lb                        float64
	hasCol                    bool
	sel                       rrset.Selection
	members                   []graph.NodeID
	offsets                   []int64
}

// parseSketchPayload unpacks what encodeSketchPayload wrote into typed
// slices, copying out of the payload so the caller can drop it; the
// caller is responsible for the trailing-bytes check (stream entries
// embed the payload after other fields).
func parseSketchPayload(p *payloadReader) (*sketchParts, error) {
	family, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	s := &sketchParts{family: int(family)}
	var budget, phase1, allNodesN uint64
	var err1, err2, err3, err4 error
	switch family {
	case familyPrima:
		budget, err1 = p.uvarint()
		phase1, err2 = p.uvarint()
		allNodesN, err3 = p.uvarint()
	case familyIMM:
		budget, err1 = p.uvarint()
		phase1, err2 = p.uvarint()
		s.lb, err3 = p.float64()
		allNodesN, err4 = p.uvarint()
	default:
		return nil, fmt.Errorf("%w: unknown sketch family %d", ErrCorrupt, family)
	}
	if err := firstErr(err1, err2, err3, err4); err != nil {
		return nil, err
	}
	s.budget, s.phase1, s.allNodesN = int(budget), int(phase1), int(allNodesN)
	if err := parseCollection(p, s); err != nil {
		return nil, err
	}
	return s, nil
}

// build restores the collection against g, reassembles the family's
// sketch, and adopts the persisted selection once it checks out against
// the restored collection. Every inconsistency is ErrCorrupt.
func (s *sketchParts) build(g *graph.Graph) (any, error) {
	if s.allNodesN != 0 && (s.allNodesN != g.N() || s.hasCol) {
		return nil, fmt.Errorf("%w: all-nodes marker %d on a %d-node graph", ErrCorrupt, s.allNodesN, g.N())
	}
	var col *rrset.Collection
	if s.hasCol {
		var err error
		if col, err = rrset.Restore(g, s.members, s.offsets); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s.sel.Sets = col.Len()
	}
	var sketch interface {
		AdoptSelection(rrset.Selection) error
	}
	switch s.family {
	case familyPrima:
		sketch = prima.RestoreSketch(col, s.budget, s.phase1, s.allNodesN)
	default:
		sketch = imm.RestoreSketch(col, s.budget, s.phase1, s.lb, s.allNodesN)
	}
	if col != nil {
		if err := sketch.AdoptSelection(s.sel); err != nil {
			return nil, fmt.Errorf("%w: persisted selection: %v", ErrCorrupt, err)
		}
	}
	return sketch, nil
}

// encodeCollection packs a (possibly nil, for degenerate sketches)
// collection and its greedy selection: a presence flag; the selection's
// length, seed ids as 32-bit words and covered-at-prefix counts as
// 64-bit words; then the set and member counts and the per-set sizes
// and flattened members as 32-bit words. Raw words are about twice a
// varint file's size, but decode is one copy loop with no per-member
// branch. Members keep their sampled order — no sorting — so the
// restored collection is bit-for-bit the original and NodeSelection's
// deterministic ordering is preserved exactly. The selection comes
// first so the decoder's small arrays exist before its big ones.
func encodeCollection(p *payloadWriter, col *rrset.Collection, sel rrset.Selection) {
	if col == nil {
		p.uvarint(0)
		return
	}
	offsets, members := col.Offsets(), col.Members()
	p.buf.Grow(3*binary.MaxVarintLen64 + 12*len(sel.Order) + 4*col.Len() + 4*len(members))
	p.uvarint(1)
	p.uvarint(uint64(len(sel.Order)))
	b := p.buf.AvailableBuffer()
	for _, v := range sel.Order {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, c := range sel.Covered {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	p.buf.Write(b)
	p.uvarint(uint64(col.Len()))
	p.uvarint(uint64(len(members)))
	b = p.buf.AvailableBuffer()
	for i := 0; i < col.Len(); i++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(offsets[i+1]-offsets[i]))
	}
	for _, v := range members {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	p.buf.Write(b)
}

// parseCollection unpacks what encodeCollection wrote. Counts are
// bounded by the remaining bytes before anything is allocated, the
// sizes must sum to the member count, and member ids are left to
// rrset.Restore, which checks every one against the graph.
func parseCollection(p *payloadReader, s *sketchParts) error {
	present, err := p.uvarint()
	if err != nil {
		return err
	}
	if present > 1 {
		return fmt.Errorf("%w: collection presence flag %d", ErrCorrupt, present)
	}
	if present == 0 {
		return nil
	}
	s.hasCol = true
	k, err := p.uvarint()
	if err != nil {
		return err
	}
	order, err := p.words(k, 4)
	if err != nil {
		return err
	}
	covered, err := p.words(k, 8)
	if err != nil {
		return err
	}
	s.sel.Order = make([]graph.NodeID, k)
	s.sel.Covered = make([]int64, k)
	for i := range s.sel.Order {
		s.sel.Order[i] = graph.NodeID(binary.LittleEndian.Uint32(order[4*i:]))
		s.sel.Covered[i] = int64(binary.LittleEndian.Uint64(covered[8*i:]))
	}

	numSets, err1 := p.uvarint()
	total, err2 := p.uvarint()
	if err := firstErr(err1, err2); err != nil {
		return err
	}
	sizes, err := p.words(numSets, 4)
	if err != nil {
		return err
	}
	words, err := p.words(total, 4)
	if err != nil {
		return err
	}
	s.offsets = make([]int64, numSets+1)
	for i := range numSets {
		s.offsets[i+1] = s.offsets[i] + int64(binary.LittleEndian.Uint32(sizes[4*i:]))
	}
	if s.offsets[numSets] != int64(total) {
		return fmt.Errorf("%w: set sizes sum to %d, member count is %d", ErrCorrupt, s.offsets[numSets], total)
	}
	s.members = make([]graph.NodeID, total)
	for i := range s.members {
		s.members[i] = graph.NodeID(binary.LittleEndian.Uint32(words[4*i:]))
	}
	return nil
}

// SketchCost is the resident memory of a built sketch in bytes: what
// its collection holds (rrset.Collection.ResidentBytes — sets, inverted
// index and the per-node index term), the memoised selection its first
// Select will add (rrset.MemoBytes — priced up front, so an entry's
// cost never changes after insertion), plus a fixed floor for the
// headers. The service's cost-aware cache eviction and the disk-tier
// budget both price entries with it.
func SketchCost(sketch any) int64 {
	var col *rrset.Collection
	var k int
	switch sk := sketch.(type) {
	case *prima.Sketch:
		col, k, _, _ = sk.State()
	case *imm.Sketch:
		col, k, _, _, _ = sk.State()
	}
	const floor = 256
	if col == nil {
		return floor
	}
	return floor + col.ResidentBytes() + rrset.MemoBytes(k)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
