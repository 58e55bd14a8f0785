// Package sketchtest holds the build tests every RR-sketch family
// answers to: memoised selection, resident phase-1 streams, extension,
// cancellation and parallel welfare. Each check runs over a table of Rows — a family's
// build on fixed budgets — so prima's and imm's tests of the same name
// are one body run over PRIMA rows and the IMM row respectively.
package sketchtest

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// Row is one row of the build-test table: a sketch build of one family
// on fixed budgets.
type Row struct {
	Name    string
	Budgets []int // IMM's one budget is k
	Build   func(ctx context.Context, g *graph.Graph, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error)
	// Extend grows a sketch of the row's family into one serving
	// budgets, through the family's ExtendSketchCtx (IMM's reads the top
	// budget only).
	Extend func(ctx context.Context, g *graph.Graph, sk *rrset.Sketch, budgets []int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error)
}

// PRIMA is the row of a PRIMA build on budgets.
func PRIMA(budgets ...int) Row {
	return Row{
		Name:    fmt.Sprintf("prima%v", budgets),
		Budgets: budgets,
		Build: func(ctx context.Context, g *graph.Graph, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
			return prima.BuildSketchCtx(ctx, g, budgets, opts, rng)
		},
		Extend: func(ctx context.Context, g *graph.Graph, sk *rrset.Sketch, budgets []int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
			return prima.ExtendSketchCtx(ctx, g, sk, nil, opts, budgets, opts, rng)
		},
	}
}

// IMM is the row of an IMM build at k.
func IMM(k int) Row {
	return Row{
		Name:    fmt.Sprintf("imm %d", k),
		Budgets: []int{k},
		Build: func(ctx context.Context, g *graph.Graph, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
			return imm.BuildSketchCtx(ctx, g, k, opts, rng)
		},
		Extend: func(ctx context.Context, g *graph.Graph, sk *rrset.Sketch, budgets []int, opts rrset.Options, rng *stats.RNG) (*rrset.Sketch, error) {
			return imm.ExtendSketchCtx(ctx, g, sk, budgets[0], opts, rng)
		},
	}
}

var cascades = []graph.Cascade{graph.CascadeIC, graph.CascadeLT}

// top is the row's largest budget: the ceiling K of its sketch.
func (r Row) top() int { return slices.Max(r.Budgets) }

// mustBuild is the row's build under a background context.
func (r Row) mustBuild(t *testing.T, g *graph.Graph, opts rrset.Options, seed uint64) *rrset.Sketch {
	t.Helper()
	sk, err := r.Build(context.Background(), g, opts, stats.NewRNG(seed))
	if err != nil {
		t.Fatalf("%s: build: %v", r.Name, err)
	}
	return sk
}

// Families spans three structurally distinct graph families — the
// equivalence properties must hold on all of them, not just ER graphs.
func Families() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"barabasi-albert": graph.BarabasiAlbert(300, 3, stats.NewRNG(101)).WeightedCascade(),
		"watts-strogatz":  graph.WattsStrogatz(300, 6, 0.2, stats.NewRNG(102)).WeightedCascade(),
		"power-law":       graph.PowerLawGraph(300, 2.2, 5, stats.NewRNG(103)).WeightedCascade(),
	}
}

// EvalSpread estimates n·F(S) for a seed set on an independent
// evaluation collection — one yardstick for comparing selections built
// from different sketches.
func EvalSpread(g *graph.Graph, seeds []graph.NodeID, seed uint64) float64 {
	eval := rrset.NewCollection(g)
	_ = eval.GrowParallelCtx(context.Background(), 20000, stats.NewRNG(seed), 1, nil)
	return float64(g.N()) * eval.FractionCovered(seeds)
}

// ParallelBuildWelfareMatchesSerial: a sketch built with parallel
// RR-set growth must yield a selection whose estimated spread is within
// the sampling tolerance of the serial build's, for every row on every
// graph family.
func ParallelBuildWelfareMatchesSerial(t *testing.T, rows []Row) {
	opts := rrset.Options{Eps: 0.4, Ell: 1}
	popts := opts
	popts.Workers = 4
	for name, g := range Families() {
		for _, row := range rows {
			sres := row.mustBuild(t, g, opts, 7).Select()
			pres := row.mustBuild(t, g, popts, 8).Select()
			if len(sres.Seeds) != len(pres.Seeds) {
				t.Fatalf("%s %s: selection sizes differ: %d vs %d", name, row.Name, len(sres.Seeds), len(pres.Seeds))
			}
			ss := EvalSpread(g, sres.Seeds, 901)
			ps := EvalSpread(g, pres.Seeds, 901)
			if math.Abs(ss-ps) > 0.15*math.Max(ss, ps)+1 {
				t.Errorf("%s %s: serial spread %.2f vs parallel %.2f beyond tolerance", name, row.Name, ss, ps)
			}
		}
	}
}
