package sketchtest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// ExtendMatchesFreshBuild: an extension runs its request's own θ rule,
// so whenever that θ exceeds the base's length, a sketch built on the
// request's seed and extended to the request is the request's fresh
// build byte for byte — members, offsets, K, Phase1, LB and Family —
// and otherwise it shares the base's collection, which the fresh build
// would not outgrow. Each chain builds its first row and extends the
// result to each later row in turn, as the resolver extends its
// resident sketch, with the resident S₁ lent throughout; under IC and
// LT, at W 1, 2 and 4. Every chain must grow at least once.
func ExtendMatchesFreshBuild(t *testing.T, chains [][]Row) {
	g := graph.PowerLawGraph(500, 2.2, 5, stats.NewRNG(71)).WeightedCascade()
	const seed = 76
	ctx := context.Background()
	for _, cascade := range cascades {
		for _, workers := range []int{1, 2, 4} {
			for _, chain := range chains {
				opts := rrset.Options{Cascade: cascade, Workers: workers}
				var s1 residentStream
				lent := opts
				lent.Phase1Stream = s1.lend
				sk := chain[0].mustBuild(t, g, lent, seed)
				grew := 0
				for i, row := range chain[1:] {
					what := fmt.Sprintf("cascade %d W%d %s → %s", cascade, workers, chain[i].Name, row.Name)
					base, baseLen := sk, sk.NumRRSets()
					var err error
					if sk, err = row.Extend(ctx, g, base, row.Budgets, lent, stats.NewRNG(seed)); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if base.NumRRSets() != baseLen {
						t.Fatalf("%s: the extension mutated its base: %d sets, had %d", what, base.NumRRSets(), baseLen)
					}
					fresh := row.mustBuild(t, g, opts, seed)
					if sk.Col == base.Col {
						if fresh.NumRRSets() > baseLen {
							t.Fatalf("%s: shares the base's %d sets, the fresh build holds %d", what, baseLen, fresh.NumRRSets())
						}
						continue
					}
					sameSketch(t, what, sk, fresh)
					grew++
				}
				if grew == 0 {
					t.Fatalf("cascade %d W%d chain from %s: no extension grew", cascade, workers, chain[0].Name)
				}
			}
		}
	}
}

// ExtendRefusedBeforePhase1: an extension that no base could serve — no
// sketch, a degenerate one, one of another graph, or budgets that leave
// nothing to sample — is refused with rrset.ErrNotExtendable before its
// θ rule starts: no S₁ is lent and no set is sampled.
func ExtendRefusedBeforePhase1(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(100, 3, stats.NewRNG(77)).WeightedCascade()
	other := graph.BarabasiAlbert(101, 3, stats.NewRNG(77)).WeightedCascade()
	n := g.N()
	for _, row := range rows {
		built := row.mustBuild(t, g, rrset.Options{}, 78)
		cases := []struct {
			name    string
			g       *graph.Graph
			base    *rrset.Sketch
			budgets []int
		}{
			{"nil sketch", g, nil, row.Budgets},
			{"all-nodes sketch", g, &rrset.Sketch{Family: built.Family, K: n, AllNodes: n}, row.Budgets},
			{"other graph", other, built, row.Budgets},
			{"whole-graph budget", g, built, []int{n}},
			{"no budget", g, built, []int{0}},
		}
		for _, c := range cases {
			var s1 residentStream
			events := 0
			opts := rrset.Options{Phase1Stream: s1.lend, Progress: func(progress.Event) { events++ }}
			sk, err := row.Extend(context.Background(), c.g, c.base, c.budgets, opts, stats.NewRNG(79))
			if !errors.Is(err, rrset.ErrNotExtendable) || sk != nil {
				t.Errorf("%s %s: sketch %v, err = %v, want ErrNotExtendable", row.Name, c.name, sk, err)
			}
			if s1.col != nil || events != 0 {
				t.Errorf("%s %s: refused after its θ rule started (S₁ lent: %t, %d progress events)", row.Name, c.name, s1.col != nil, events)
			}
		}
	}
}
