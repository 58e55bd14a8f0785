package comic

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// importIMMRun returns the RR-set count of a plain IMM run, used by the
// Fig. 6 comparison test.
func importIMMRun(g *graph.Graph, k int, rng *stats.RNG) int {
	return imm.Run(g, k, rrset.Options{}, rng).NumRRSets
}
