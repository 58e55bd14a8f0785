package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleSweepResult() *SweepResult {
	return &SweepResult{
		SweepID:  "n0-j7",
		Name:     "mini-grid",
		TraceID:  "t-abc123",
		SpecJSON: []byte(`{"graph_ids":["g1","g2"],"budgets":[[25,25]]}`),
		Cells: []SweepCell{
			{
				Index: 0, CellID: "c0", GraphID: "g1", Algo: "bundleGRD",
				Config: "config1", Cascade: "ic", Eps: 0.3, Budgets: []int{25, 25},
				Seed: 1, State: "done", Node: "b0", JobID: "b0-j3",
				WelfareMean: 412.5, WelfareStdErr: 3.1, WelfareRuns: 200,
				HasWelfare: true, SketchCached: true, ElapsedMS: 91,
			},
			{
				Index: 1, CellID: "c1", GraphID: "g2", Algo: "item-disj",
				Config: "config3", Cascade: "ic", Budgets: []int{50, 50},
				Seed: 1, State: "failed", Node: "b1", JobID: "b1-j4",
				ElapsedMS: 12, Error: "backend b1 job b1-j4: graph evicted",
			},
			{
				Index: 2, CellID: "c2", GraphID: "g2", Algo: "",
				Config: "config1", Cascade: "lt", Budgets: []int{10},
				Seed: 2, State: "canceled",
			},
		},
	}
}

func TestSweepResultRoundTrip(t *testing.T) {
	res := sampleSweepResult()
	var buf bytes.Buffer
	if err := EncodeSweepResult(&buf, res); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSweepResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, res)
	}
	// The content id is the artifact's checksum: a decoded artifact must
	// re-derive the id of the result that was encoded.
	if id, reID := SweepResultID(res), SweepResultID(got); id != reID {
		t.Errorf("id not stable across round trip: %s vs %s", id, reID)
	}
}

func TestSweepResultIDSensitivity(t *testing.T) {
	a := SweepResultID(sampleSweepResult())
	if b := SweepResultID(sampleSweepResult()); a != b {
		t.Errorf("id not deterministic: %s vs %s", a, b)
	}
	changed := sampleSweepResult()
	changed.Cells[0].WelfareMean += 0.001
	if b := SweepResultID(changed); a == b {
		t.Error("id did not change when a cell's welfare changed")
	}
}

func TestSweepResultCorruptInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSweepResult(&buf, sampleSweepResult()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	good := buf.Bytes()
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"flipped payload bit", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[30] ^= 0x20
			return c
		}, ErrChecksum},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, ErrBadMagic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSweepResult(bytes.NewReader(tc.corrupt(good))); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestStoreSweepSaveLoadList(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	res := sampleSweepResult()
	id, err := s.SaveSweep(res)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if id != SweepResultID(res) {
		t.Errorf("save returned %s, want content id %s", id, SweepResultID(res))
	}
	// Re-save dedupes on the content address.
	if id2, err := s.SaveSweep(res); err != nil || id2 != id {
		t.Errorf("re-save: id %s err %v", id2, err)
	}
	got, err := s.LoadSweep(id)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Error("loaded sweep differs from saved")
	}
	list := s.ListSweeps()
	if len(list) != 1 || list[0].ArtifactID != id {
		t.Errorf("list: %+v, want one entry %s", list, id)
	}

	// A corrupted artifact is rejected and removed, not served.
	path := filepath.Join(dir, "sweeps", id+SweepExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	raw[len(raw)-6] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("rewrite artifact: %v", err)
	}
	if _, err := s.LoadSweep(id); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupt load: %v, want ErrChecksum", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt artifact was not removed")
	}
}

func TestSweepFileHelpers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweeps")
	res := sampleSweepResult()
	id, err := SaveSweepFile(dir, res)
	if err != nil {
		t.Fatalf("save file: %v", err)
	}
	got, err := LoadSweepFile(dir, id)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Error("file round trip differs")
	}
}

// TestSweepDirSharesStoreBody: a bare SweepDir and a Store run the same
// save and load bodies — a re-save writes nothing, a corrupt artifact is
// removed on load — and only the Store counts what happened.
func TestSweepDirSharesStoreBody(t *testing.T) {
	res := sampleSweepResult()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	bare := filepath.Join(t.TempDir(), "sweeps")
	sides := map[string]struct {
		dir  string
		sink interface {
			SaveSweep(*SweepResult) (string, error)
			LoadSweep(string) (*SweepResult, error)
		}
	}{
		"store": {sweepsDir(s.dir), s},
		"dir":   {bare, SweepDir(bare)},
	}
	for name, side := range sides {
		id, err := side.sink.SaveSweep(res)
		if err != nil || id != SweepResultID(res) {
			t.Fatalf("%s: save: id %s err %v", name, id, err)
		}
		path := filepath.Join(side.dir, id+SweepExt)
		// A re-save must not rewrite: plant a marker the write would erase.
		if err := os.WriteFile(path, []byte("marker"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := side.sink.SaveSweep(res); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if raw, _ := os.ReadFile(path); string(raw) != "marker" {
			t.Errorf("%s: re-save rewrote the artifact", name)
		}
		// The marker is no whole frame: the load reports it and removes it.
		if _, err := side.sink.LoadSweep(id); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: corrupt load: %v, want ErrTruncated", name, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt artifact was not removed", name)
		}
		if _, err := side.sink.LoadSweep(id); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: missing load: %v, want not-exist", name, err)
		}
	}
	// One write, one undecodable load; the dedupe and the miss count nothing.
	if st := s.Stats(); st.Spills != 1 || st.SpillErrors != 0 || st.LoadErrors != 1 {
		t.Errorf("store counters: %+v", st)
	}
}
