package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/graph"
)

// EncodeGraph writes g as a .wmg frame: the caller's name label, then
// the canonical out-CSR — per-node degree followed by delta-coded sorted
// targets with their probabilities. Delta coding keeps the varints short
// on the clustered targets real networks produce; the in-adjacency is
// not stored because DecodeGraph rebuilds it deterministically.
func EncodeGraph(w io.Writer, name string, g *graph.Graph) error {
	outIndex, outTo, outProb := g.CSR()
	var p payloadWriter
	p.string(name)
	p.uvarint(uint64(g.N()))
	p.uvarint(uint64(g.M()))
	for v := 0; v < g.N(); v++ {
		lo, hi := outIndex[v], outIndex[v+1]
		p.uvarint(uint64(hi - lo))
		prev := int64(-1)
		for j := lo; j < hi; j++ {
			t := int64(outTo[j])
			p.uvarint(uint64(t - prev)) // strictly sorted row: delta >= 1
			prev = t
		}
		for j := lo; j < hi; j++ {
			p.float32(outProb[j])
		}
	}
	return frame.Write(w, GraphMagic, Version, p.buf.Bytes())
}

// DecodeGraph reads one .wmg frame and reconstructs the graph through
// graph.FromCSR, which re-validates the structure and rebuilds the
// in-adjacency — so DecodeGraph(EncodeGraph(g)) is structurally equal to
// g, and a corrupt file yields a typed error, never a broken graph.
func DecodeGraph(r io.Reader) (name string, g *graph.Graph, err error) {
	payload, err := readFrame(r, GraphMagic, Version)
	if err != nil {
		return "", nil, err
	}
	p := payloadReader{rest: payload}
	if name, err = p.string(); err != nil {
		return "", nil, err
	}
	n64, err := p.uvarint()
	if err != nil {
		return "", nil, err
	}
	m64, err := p.uvarint()
	if err != nil {
		return "", nil, err
	}
	const maxNodes = 1 << 31 // NodeID is int32
	// Bound n against the remaining bytes too (every node contributes at
	// least a one-byte degree): a forged header declaring n=2^31 in a
	// 30-byte frame must not allocate a 17 GiB offset slice — this codec
	// reads unauthenticated request bodies (wmg / /v1/graphs/import).
	if n64 > maxNodes || n64 > uint64(len(p.rest)) || m64 > uint64(len(p.rest)) {
		return "", nil, fmt.Errorf("%w: implausible n=%d m=%d", ErrCorrupt, n64, m64)
	}
	n, m := int(n64), int(m64)
	outIndex := make([]int64, n+1)
	outTo := make([]graph.NodeID, 0, m)
	outProb := make([]float32, 0, m)
	for v := 0; v < n; v++ {
		deg, err := p.count()
		if err != nil {
			return "", nil, err
		}
		prev := int64(-1)
		for j := 0; j < deg; j++ {
			d, err := p.uvarint()
			if err != nil {
				return "", nil, err
			}
			t := prev + int64(d)
			if t >= maxNodes {
				return "", nil, fmt.Errorf("%w: edge target %d overflows", ErrCorrupt, t)
			}
			outTo = append(outTo, graph.NodeID(t))
			prev = t
		}
		for j := 0; j < deg; j++ {
			pr, err := p.float32()
			if err != nil {
				return "", nil, err
			}
			outProb = append(outProb, pr)
		}
		outIndex[v+1] = int64(len(outTo))
	}
	if err := p.done(); err != nil {
		return "", nil, err
	}
	if len(outTo) != m {
		return "", nil, fmt.Errorf("%w: degrees sum to %d edges, header says %d", ErrCorrupt, len(outTo), m)
	}
	g, err = graph.FromCSR(n, outIndex, outTo, outProb)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return name, g, nil
}

// GraphID content-addresses a graph: a SHA-256 over the node count and
// the canonical CSR edge list (targets and probabilities in sorted
// order), truncated to 16 hex digits and prefixed "g". Two structurally
// equal graphs — however they were loaded or generated — hash to the
// same id, so duplicate registrations dedupe and ids survive daemon
// restarts. The probability bits participate: the same topology under
// weighted-cascade vs. kept probabilities is a different diffusion
// instance and gets a different id.
func GraphID(g *graph.Graph) string {
	h := sha256.New()
	var word [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	writeU64(uint64(g.N()))
	writeU64(uint64(g.M()))
	outIndex, outTo, outProb := g.CSR()
	for v := 0; v < g.N(); v++ {
		writeU64(uint64(outIndex[v+1] - outIndex[v]))
	}
	var buf [8]byte
	for i, t := range outTo {
		binary.LittleEndian.PutUint32(buf[:4], uint32(t))
		binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(outProb[i]))
		h.Write(buf[:])
	}
	sum := h.Sum(nil)
	return fmt.Sprintf("g%x", sum[:8])
}
