package store

import (
	"fmt"
	"io"

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
// frame: the family tag, the family's scalar fields, and the RR-set
// collection as offsets plus delta-coded flattened members. The graph is
// deliberately not embedded — a sketch is only meaningful next to its
// graph, and the store keys sketch files by the graph's content id, so
// DecodeSketch takes the resident graph instead.
func EncodeSketch(w io.Writer, sketch any) error {
	var p payloadWriter
	if err := encodeSketchPayload(&p, sketch); err != nil {
		return err
	}
	return writeFrame(w, SketchMagic, p.buf.Bytes())
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
		encodeCollection(p, col)
	case *imm.Sketch:
		col, k, phase1, lb, allNodesN := sk.State()
		p.uvarint(familyIMM)
		p.uvarint(uint64(k))
		p.uvarint(uint64(phase1))
		p.float64(lb)
		p.uvarint(uint64(allNodesN))
		encodeCollection(p, col)
	default:
		return fmt.Errorf("store: cannot encode sketch type %T", sketch)
	}
	return nil
}

// DecodeSketch reads one .wms frame against the graph it was built for,
// returning a *prima.Sketch or *imm.Sketch indistinguishable from the
// freshly built original (rrset.Restore rebuilds the inverted index and
// re-validates every member against g). The caller is responsible for
// pairing the right graph — the store does so by keying sketch files
// under the graph's content id.
func DecodeSketch(r io.Reader, g *graph.Graph) (any, error) {
	payload, err := readFrame(r, SketchMagic)
	if err != nil {
		return nil, err
	}
	p := payloadReader{rest: payload}
	sketch, err := decodeSketchPayload(&p, g)
	if err != nil {
		return nil, err
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	return sketch, nil
}

// decodeSketchPayload unpacks what encodeSketchPayload wrote; the caller
// is responsible for the trailing-bytes check (stream entries embed the
// payload after other fields).
func decodeSketchPayload(p *payloadReader, g *graph.Graph) (any, error) {
	family, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	switch family {
	case familyPrima:
		maxBudget, err1 := p.uvarint()
		phase1, err2 := p.uvarint()
		allNodesN, err3 := p.uvarint()
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, err
		}
		col, err := decodeCollection(p, g)
		if err != nil {
			return nil, err
		}
		return prima.RestoreSketch(col, int(maxBudget), int(phase1), int(allNodesN)), nil
	case familyIMM:
		k, err1 := p.uvarint()
		phase1, err2 := p.uvarint()
		lb, err3 := p.float64()
		allNodesN, err4 := p.uvarint()
		if err := firstErr(err1, err2, err3, err4); err != nil {
			return nil, err
		}
		col, err := decodeCollection(p, g)
		if err != nil {
			return nil, err
		}
		return imm.RestoreSketch(col, int(k), int(phase1), lb, int(allNodesN)), nil
	}
	return nil, fmt.Errorf("%w: unknown sketch family %d", ErrCorrupt, family)
}

// encodeCollection packs a (possibly nil, for degenerate sketches)
// collection: a presence flag, the set count, per-set sizes, and the
// flattened members as plain varints. Members keep their sampled order —
// no sorting — so the restored collection is bit-for-bit the original
// and NodeSelection's deterministic ordering is preserved exactly.
func encodeCollection(p *payloadWriter, col *rrset.Collection) {
	if col == nil {
		p.uvarint(0)
		return
	}
	p.uvarint(1)
	offsets, members := col.Offsets(), col.Members()
	p.uvarint(uint64(col.Len()))
	for i := 0; i < col.Len(); i++ {
		p.uvarint(uint64(offsets[i+1] - offsets[i]))
	}
	for _, v := range members {
		p.uvarint(uint64(v))
	}
}

// decodeCollection unpacks what encodeCollection wrote, rebuilding the
// inverted index through rrset.Restore.
func decodeCollection(p *payloadReader, g *graph.Graph) (*rrset.Collection, error) {
	present, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	numSets, err := p.count()
	if err != nil {
		return nil, err
	}
	offsets := make([]int64, numSets+1)
	for i := 0; i < numSets; i++ {
		size, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		// Bound each size and the running total against the remaining
		// bytes (every member occupies at least one byte) BEFORE the
		// addition: a forged size near 2^64 must yield ErrCorrupt, not an
		// int64 wraparound that slips past the total check and panics
		// make().
		if size > uint64(len(p.rest)) || offsets[i]+int64(size) > int64(len(p.rest)) {
			return nil, fmt.Errorf("%w: set sizes exceed remaining %d bytes", ErrCorrupt, len(p.rest))
		}
		offsets[i+1] = offsets[i] + int64(size)
	}
	total := offsets[numSets]
	members := make([]graph.NodeID, total)
	for i := range members {
		v, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(g.N()) {
			return nil, fmt.Errorf("%w: member node %d out of range [0, %d)", ErrCorrupt, v, g.N())
		}
		members[i] = graph.NodeID(v)
	}
	col, err := rrset.Restore(g, members, offsets)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return col, nil
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
