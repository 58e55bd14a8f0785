package comic

import (
	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/uic"
	"uicwelfare/internal/utility"
)

// Options configures the Com-IC baselines.
type Options struct {
	Eps float64
	Ell float64
	// ForwardRuns is the Monte-Carlo budget of the forward phases
	// (candidate re-ranking in RR-SIM+, adoption-probability estimation
	// in RR-CIM). Defaults to 200.
	ForwardRuns int
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	if o.ForwardRuns <= 0 {
		o.ForwardRuns = 200
	}
	return o
}

// Result is a two-item allocation plus effort statistics.
type Result struct {
	Alloc       *uic.Allocation
	NumRRSets   int
	TotalRRSets int
	ForwardRuns int
	// ExpectedA/B are the forward-validated expected adoption counts of
	// the two items under the final allocation.
	ExpectedA float64
	ExpectedB float64
}

// AllocateRRSIMPlus reproduces the RR-SIM+ baseline for two complementary
// items: item B's seeds are chosen with plain IMM, then item A's seeds
// are selected by TIM-scale reverse sampling in which the reverse walk
// passes through a node with its self-adoption probability q_{A|∅}
// (boosted to q_{A|B} on B's seed nodes), followed by a forward
// Monte-Carlo validation pass. budgets is [b_A, b_B].
func AllocateRRSIMPlus(g *graph.Graph, m *utility.Model, budgets []int, opts Options, rng *stats.RNG) (Result, error) {
	return allocateComIC(g, m, budgets, opts, rng, false)
}

// AllocateRRCIM reproduces the RR-CIM baseline: a forward phase first
// estimates every node's probability β_v of adopting the complement B
// from B's seed set, then reverse sampling uses the mixed node coin
// β_v·q_{A|B} + (1-β_v)·q_{A|∅}. It is the more accurate and more
// expensive of the pair.
func AllocateRRCIM(g *graph.Graph, m *utility.Model, budgets []int, opts Options, rng *stats.RNG) (Result, error) {
	return allocateComIC(g, m, budgets, opts, rng, true)
}

func allocateComIC(g *graph.Graph, m *utility.Model, budgets []int, opts Options, rng *stats.RNG, cim bool) (Result, error) {
	opts = opts.withDefaults()
	gap, err := utility.GAPFromModel(m)
	if err != nil {
		return Result{}, err
	}
	if len(budgets) != 2 {
		return Result{}, errBudgets(len(budgets))
	}
	bA, bB := budgets[0], budgets[1]

	// Step 1: B's seeds via plain IMM (as the paper does).
	immRes := imm.Run(g, bB, rrset.Options{Eps: opts.Eps, Ell: opts.Ell}, rng)
	seedsB := immRes.Seeds
	totalRR := immRes.TotalRRSets
	numRR := immRes.NumRRSets

	inB := make([]bool, g.N())
	for _, v := range seedsB {
		inB[v] = true
	}

	// Step 2: node coin for the reverse walk.
	var coin func(graph.NodeID) float64
	forwardRuns := 0
	if cim {
		// RR-CIM: forward phase estimating β_v = P[v adopts B].
		sim := NewSim(g, gap)
		beta := sim.AdoptionProbabilities(nil, seedsB, rng, opts.ForwardRuns)
		forwardRuns += opts.ForwardRuns
		coin = func(v graph.NodeID) float64 {
			return beta[v]*gap.Q1Given2 + (1-beta[v])*gap.Q1GivenNone
		}
	} else {
		// RR-SIM+: self-influence coin, boosted on B's seed nodes.
		coin = func(v graph.NodeID) float64 {
			if inB[v] {
				return gap.Q1Given2
			}
			return gap.Q1GivenNone
		}
	}

	// Step 3: TIM-scale reverse sampling for item A.
	timRes := imm.RunTIM(g, bA, rrset.Options{Eps: opts.Eps, Ell: opts.Ell, NodeCoin: coin}, rng)
	seedsA := timRes.Seeds
	totalRR += timRes.TotalRRSets
	numRR += timRes.NumRRSets

	// Step 4: forward Monte-Carlo validation pass over the chosen seeds.
	// Both baselines run forward simulations on top of the reverse
	// sampling (this is what makes them markedly slower than bundleGRD,
	// the effect Fig. 5 measures); the measured adoptions are reported
	// for diagnostics.
	sim := NewSim(g, gap)
	expA, expB := sim.ExpectedAdoptions(seedsA, seedsB, rng, opts.ForwardRuns)
	forwardRuns += opts.ForwardRuns

	alloc := uic.NewAllocation(2)
	for _, v := range seedsA {
		alloc.Assign(v, ItemA)
	}
	for _, v := range seedsB {
		alloc.Assign(v, ItemB)
	}
	return Result{
		Alloc:       alloc,
		NumRRSets:   numRR,
		TotalRRSets: totalRR,
		ForwardRuns: forwardRuns,
		ExpectedA:   expA,
		ExpectedB:   expB,
	}, nil
}

type errBudgets int

func (e errBudgets) Error() string {
	return "comic: need exactly 2 budgets for the Com-IC baselines"
}
