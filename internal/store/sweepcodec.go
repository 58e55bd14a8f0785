package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"uicwelfare/internal/frame"
)

// SweepExt is the sweep-result artifact format written under
// <dir>/sweeps: the third persisted artifact kind beside graphs (.wmg)
// and spilled sketches (.wms).
const SweepExt = ".wsr"

// SweepMagic opens a .wsr sweep-result file. The frame layout (magic,
// version, payload length, payload, CRC-32C) is shared with the graph
// and sketch codecs.
const SweepMagic = "WMSWEEP\x00"

// SweepCell is one finished grid cell of a sweep result: the cell's
// coordinates in the parameter grid, where it ran, and what it produced.
// It is both the codec's wire row and the JSON row GET
// /v1/sweeps/{id}/results serves.
type SweepCell struct {
	// Index is the cell's position in the deterministic grid expansion;
	// CellID is its stable name ("c<Index>").
	Index  int    `json:"index"`
	CellID string `json:"cell_id"`
	// Grid coordinates.
	GraphID string  `json:"graph_id"`
	Algo    string  `json:"algo"`
	Config  string  `json:"config"`
	Cascade string  `json:"cascade"`
	Eps     float64 `json:"eps,omitempty"`
	Budgets []int   `json:"budgets"`
	Seed    uint64  `json:"seed,omitempty"`
	// State is the cell's terminal state: "done", "failed", or
	// "canceled". A sweep completes even when some cells do not.
	State string `json:"state"`
	// Node is the backend that ran the cell (empty on a single-node
	// daemon); JobID is the per-cell job whose prefix carries the node in
	// a cluster ("b1-j42").
	Node  string `json:"node,omitempty"`
	JobID string `json:"job_id,omitempty"`
	// Welfare statistics (present when the cell ran a Monte-Carlo
	// estimate and finished).
	WelfareMean   float64 `json:"welfare_mean,omitempty"`
	WelfareStdErr float64 `json:"welfare_stderr,omitempty"`
	WelfareRuns   int     `json:"welfare_runs,omitempty"`
	// HasWelfare distinguishes "estimated 0.0" from "no estimate ran".
	HasWelfare bool `json:"has_welfare,omitempty"`
	// SketchCached reports whether the cell's sketch work was avoided by
	// a cache tier or a shared batch build.
	SketchCached bool `json:"sketch_cached,omitempty"`
	// ElapsedMS is the cell's run time; Error the failure message of a
	// failed/canceled cell.
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SweepResult is a finished sweep's full record: the submitted spec
// (kept as raw JSON so the artifact replays the exact request), every
// cell row, and the identifiers needed to correlate it with the job
// system. It is persisted as a content-addressed .wsr artifact.
type SweepResult struct {
	// SweepID is the sweep job id the result belongs to; Name the
	// client's optional label; TraceID the sweep's request trace.
	SweepID string `json:"sweep_id"`
	Name    string `json:"name,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// SpecJSON is the submitted grid spec, verbatim.
	SpecJSON []byte `json:"spec,omitempty"`
	Cells    []SweepCell
}

// encodeSweepPayload packs the result's frame body. The payload is what
// SweepResultID hashes, so field order here is the artifact identity.
func encodeSweepPayload(res *SweepResult) []byte {
	var p payloadWriter
	p.string(res.SweepID)
	p.string(res.Name)
	p.string(res.TraceID)
	p.string(string(res.SpecJSON))
	p.uvarint(uint64(len(res.Cells)))
	for i := range res.Cells {
		c := &res.Cells[i]
		p.uvarint(uint64(c.Index))
		p.string(c.CellID)
		p.string(c.GraphID)
		p.string(c.Algo)
		p.string(c.Config)
		p.string(c.Cascade)
		p.float64(c.Eps)
		p.uvarint(uint64(len(c.Budgets)))
		for _, b := range c.Budgets {
			p.uvarint(uint64(b))
		}
		p.uvarint(c.Seed)
		p.string(c.State)
		p.string(c.Node)
		p.string(c.JobID)
		flags := uint64(0)
		if c.HasWelfare {
			flags |= 1
		}
		if c.SketchCached {
			flags |= 2
		}
		p.uvarint(flags)
		p.float64(c.WelfareMean)
		p.float64(c.WelfareStdErr)
		p.uvarint(uint64(c.WelfareRuns))
		p.uvarint(uint64(c.ElapsedMS))
		p.string(c.Error)
	}
	return p.buf.Bytes()
}

// EncodeSweepResult writes the artifact as one framed .wsr payload.
func EncodeSweepResult(w io.Writer, res *SweepResult) error {
	return frame.Write(w, SweepMagic, Version, encodeSweepPayload(res))
}

// DecodeSweepResult reads and verifies one .wsr artifact.
func DecodeSweepResult(r io.Reader) (*SweepResult, error) {
	payload, err := readFrame(r, SweepMagic, Version)
	if err != nil {
		return nil, err
	}
	p := payloadReader{rest: payload}
	res := &SweepResult{}
	if res.SweepID, err = p.string(); err != nil {
		return nil, err
	}
	if res.Name, err = p.string(); err != nil {
		return nil, err
	}
	if res.TraceID, err = p.string(); err != nil {
		return nil, err
	}
	spec, err := p.string()
	if err != nil {
		return nil, err
	}
	if spec != "" {
		res.SpecJSON = []byte(spec)
	}
	cells, err := p.count()
	if err != nil {
		return nil, err
	}
	res.Cells = make([]SweepCell, 0, cells)
	for i := 0; i < cells; i++ {
		var c SweepCell
		idx, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		c.Index = int(idx)
		if c.CellID, err = p.string(); err != nil {
			return nil, err
		}
		if c.GraphID, err = p.string(); err != nil {
			return nil, err
		}
		if c.Algo, err = p.string(); err != nil {
			return nil, err
		}
		if c.Config, err = p.string(); err != nil {
			return nil, err
		}
		if c.Cascade, err = p.string(); err != nil {
			return nil, err
		}
		if c.Eps, err = p.float64(); err != nil {
			return nil, err
		}
		nb, err := p.count()
		if err != nil {
			return nil, err
		}
		c.Budgets = make([]int, nb)
		for j := range c.Budgets {
			b, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			c.Budgets[j] = int(b)
		}
		if c.Seed, err = p.uvarint(); err != nil {
			return nil, err
		}
		if c.State, err = p.string(); err != nil {
			return nil, err
		}
		if c.Node, err = p.string(); err != nil {
			return nil, err
		}
		if c.JobID, err = p.string(); err != nil {
			return nil, err
		}
		flags, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		c.HasWelfare = flags&1 != 0
		c.SketchCached = flags&2 != 0
		if c.WelfareMean, err = p.float64(); err != nil {
			return nil, err
		}
		if c.WelfareStdErr, err = p.float64(); err != nil {
			return nil, err
		}
		runs, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		c.WelfareRuns = int(runs)
		el, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		c.ElapsedMS = int64(el)
		if c.Error, err = p.string(); err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, c)
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// SweepResultID content-addresses a sweep result: a SHA-256 over its
// encoded payload, truncated to 16 hex digits and prefixed "s" — the
// same convention as GraphID. The id doubles as the artifact's
// checksum: re-encoding a loaded artifact must reproduce the id, so a
// client can verify the result it fetched is the result that was
// computed.
func SweepResultID(res *SweepResult) string {
	sum := sha256.Sum256(encodeSweepPayload(res))
	return fmt.Sprintf("s%x", sum[:8])
}

func sweepsDir(dir string) string { return filepath.Join(dir, "sweeps") }

// SaveSweep persists a finished sweep under its content id and returns
// that id, counting the write among the store's spills.
func (s *Store) SaveSweep(res *SweepResult) (string, error) {
	id, wrote, err := saveSweepFile(sweepsDir(s.dir), res)
	switch {
	case err != nil:
		s.spillErrors.Add(1)
		return id, fmt.Errorf("store: sweep %s: %w", id, err)
	case wrote:
		s.spills.Add(1)
	}
	return id, nil
}

// LoadSweep reads a persisted sweep artifact by its content id,
// counting an undecodable one among the store's load errors.
func (s *Store) LoadSweep(artifactID string) (*SweepResult, error) {
	res, err := LoadSweepFile(sweepsDir(s.dir), artifactID)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.loadErrors.Add(1)
	}
	return res, err
}

// SweepDir is a bare directory of .wsr artifacts outside any data
// directory (the cluster router keeps one under its catalog spill): the
// Store's SaveSweep/LoadSweep pair over the same file bodies, without
// the Store's counters.
type SweepDir string

func (d SweepDir) SaveSweep(res *SweepResult) (string, error) { return SaveSweepFile(string(d), res) }
func (d SweepDir) LoadSweep(id string) (*SweepResult, error)  { return LoadSweepFile(string(d), id) }

// SaveSweepFile writes res as <dir>/<content id>.wsr (creating dir) and
// returns the content id. Re-saving an identical result is a cheap
// no-op, like SaveGraph.
func SaveSweepFile(dir string, res *SweepResult) (string, error) {
	id, _, err := saveSweepFile(dir, res)
	return id, err
}

// saveSweepFile is the one .wsr save body; wrote reports whether a file
// was written (false when the artifact already existed).
func saveSweepFile(dir string, res *SweepResult) (id string, wrote bool, err error) {
	id = SweepResultID(res)
	path := filepath.Join(dir, id+SweepExt)
	if _, err := os.Stat(path); err == nil {
		return id, false, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return id, false, err
	}
	err = frame.WriteFileAtomic(path, func(w io.Writer) error {
		return EncodeSweepResult(w, res)
	})
	return id, err == nil, err
}

// LoadSweepFile is the one .wsr load body: it reads <dir>/<id>.wsr. An
// undecodable file is removed, like a corrupt sketch spill — but unlike
// a sketch the caller gets the error: a sweep result cannot be rebuilt
// from anything.
func LoadSweepFile(dir, artifactID string) (*SweepResult, error) {
	path := filepath.Join(dir, artifactID+SweepExt)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := DecodeSweepResult(f)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return res, nil
}
