package uic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/utility"
)

// goldenSim builds one simulator of the RNG-stream goldens: a 200-node
// weighted-cascade Erdős–Rényi graph under Config3.
func goldenSim(personal bool, cascade graph.Cascade) *Simulator {
	g := graph.ErdosRenyi(200, 1200, stats.NewRNG(1)).WeightedCascade()
	newSim := NewSimulator
	if personal {
		newSim = NewPersonalizedSim
	}
	sim := newSim(g, utility.Config3())
	sim.Cascade = cascade
	return sim
}

// goldenAlloc seeds nodes 0–5, node v on item v%2.
func goldenAlloc() *Allocation {
	alloc := NewAllocation(2)
	for v := graph.NodeID(0); v < 6; v++ {
		alloc.Assign(v, int(v%2))
	}
	return alloc
}

// TestRunOnceStreamGolden pins the Monte-Carlo stream: the first 8 bytes
// of SHA-256 over the little-endian bits of 2,000 RunOnce values from
// NewRNG(42). Any change to the order or number of RNG draws — edge
// coins, LT triggers, shared or per-node noise — moves a digest.
func TestRunOnceStreamGolden(t *testing.T) {
	cases := []struct {
		name     string
		personal bool
		cascade  graph.Cascade
		want     string
	}{
		{"IC shared", false, graph.CascadeIC, "10526edf70531cea"},
		{"IC personalized", true, graph.CascadeIC, "384ba1eb7d452912"},
		{"LT shared", false, graph.CascadeLT, "ea2f9d3e10dfe932"},
		{"LT personalized", true, graph.CascadeLT, "7a3c2d9dc21870ad"},
	}
	alloc := goldenAlloc()
	for _, c := range cases {
		sim := goldenSim(c.personal, c.cascade)
		rng := stats.NewRNG(42)
		h := sha256.New()
		var buf [8]byte
		for i := 0; i < 2000; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sim.RunOnce(alloc, rng)))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGenWrapMatchesFresh: when the run generation wraps to 0 every edge
// and LT trigger stamp is cleared, so a simulator that wrapped returns
// the same RunOnce sequence as a fresh one on the same RNG. One warm-up
// run stamps generation 1, the value the generation takes again right
// after the wrap, so a stamp the wrap left behind would be read as
// sampled this run: no fresh draw, and the RNG stream shifts.
func TestGenWrapMatchesFresh(t *testing.T) {
	alloc := goldenAlloc()
	for _, personal := range []bool{false, true} {
		for _, cascade := range []graph.Cascade{graph.CascadeIC, graph.CascadeLT} {
			wrapped := goldenSim(personal, cascade)
			wrapped.RunOnce(alloc, stats.NewRNG(7))
			wrapped.gen = -1
			fresh := goldenSim(personal, cascade)
			rw, rf := stats.NewRNG(9), stats.NewRNG(9)
			diff := 0
			for i := 0; i < 200; i++ {
				if wrapped.RunOnce(alloc, rw) != fresh.RunOnce(alloc, rf) {
					diff++
				}
			}
			if diff > 0 {
				t.Errorf("personal=%v cascade=%v: %d/200 runs after a gen wrap differ from a fresh simulator", personal, cascade, diff)
			}
		}
	}
}
