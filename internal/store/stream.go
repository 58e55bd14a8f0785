package store

import (
	"bufio"
	"fmt"
	"io"

	"uicwelfare/internal/frame"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
)

// SketchStreamMagic opens each entry of a sketch-stream container: the
// wire format of GET/POST /v1/graphs/{id}/sketches, which is how one
// backend ships its warm sketches to another during cluster rebalancing.
// A stream is a plain concatenation of entry frames — each one carries
// the sketch's cache key plus the same payload a .wms file holds — so a
// writer can emit entries as it walks the cache without knowing the
// count up front, and a reader imports them one at a time without
// buffering the whole transfer.
const SketchStreamMagic = "WMSSTRM\x00"

// WriteSketchStreamEntry appends one (key, sketch) entry to a sketch
// stream. The key is the sketch resolver's cache key (which embeds the graph's
// content id), so the importing side can insert the sketch under the
// identical key and have later identical requests hit it.
func WriteSketchStreamEntry(w io.Writer, key string, sketch *rrset.Sketch) error {
	var p payloadWriter
	p.string(key)
	if err := encodeSketchPayload(&p, sketch); err != nil {
		return err
	}
	return frame.Write(w, SketchStreamMagic, SketchVersion, p.buf.Bytes())
}

// ReadSketchStream decodes entries from a sketch stream until EOF,
// calling fn for each restored sketch (validated against g exactly like
// a .wms load). It returns the number of entries successfully delivered
// to fn; a corrupt entry or an fn error stops the stream with that
// error, so a truncated transfer imports a prefix and reports why.
func ReadSketchStream(r io.Reader, g *graph.Graph, fn func(key string, sketch *rrset.Sketch) error) (int, error) {
	br := bufio.NewReader(r)
	n := 0
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return n, nil // clean end between frames
		} else if err != nil {
			return n, err
		}
		payload, err := readFrame(br, SketchStreamMagic, SketchVersion)
		if err != nil {
			return n, err
		}
		p := payloadReader{rest: payload}
		key, err := p.string()
		if err != nil {
			return n, err
		}
		parts, err := parseSketchPayload(&p)
		if err == nil {
			err = p.done()
		}
		if err != nil {
			return n, fmt.Errorf("entry %q: %w", key, err)
		}
		sketch, err := parts.build(g)
		if err != nil {
			return n, fmt.Errorf("entry %q: %w", key, err)
		}
		if err := fn(key, sketch); err != nil {
			return n, err
		}
		n++
	}
}
