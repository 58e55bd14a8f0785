package prima_test

import (
	"math"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/imm"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/progress"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
)

// recordRounds returns opts with a Progress hook recording each growth
// round's target, indexed by round (index 0 unused; a round that grew
// nothing reports nothing and reads 0).
func recordRounds(opts rrset.Options) (rrset.Options, *[]int) {
	targets := new([]int)
	opts.Progress = func(ev progress.Event) {
		for len(*targets) <= ev.Round {
			*targets = append(*targets, 0)
		}
		(*targets)[ev.Round] = ev.Total
	}
	return opts, targets
}

// TestPhase1CountsOnlyReadSets: the adaptive phase grows only what its
// θ rule reads. After the last budget's coverage test nothing reads the
// collection (the Chen'18 regeneration starts from scratch), so Phase1
// is the last adaptive round's target — for PRIMA and for IMM — and not
// the final θ, which on these instances exceeds it. An earlier PRIMA
// budget's θ grow is read by the next budget's coverage test and must
// still run.
func TestPhase1CountsOnlyReadSets(t *testing.T) {
	g := graph.PowerLawGraph(400, 2.2, 5, stats.NewRNG(61)).WeightedCascade()
	builds := map[string]func(rrset.Options) *rrset.Sketch{
		"prima": func(o rrset.Options) *rrset.Sketch { return prima.BuildSketch(g, []int{8}, o, stats.NewRNG(62)) },
		"imm":   func(o rrset.Options) *rrset.Sketch { return imm.BuildSketch(g, 8, o, stats.NewRNG(62)) },
	}
	for name, build := range builds {
		opts, targets := recordRounds(rrset.Options{})
		sk := build(opts)
		ts := *targets
		last := len(ts) - 1
		if last < 2 || ts[last] != sk.NumRRSets() {
			t.Fatalf("%s: round targets %v, want adaptive rounds then the final %d", name, ts, sk.NumRRSets())
		}
		if sk.Phase1 != ts[last-1] || sk.Phase1 >= sk.NumRRSets() {
			t.Errorf("%s: Phase1 = %d, want the last adaptive round's %d (< final θ %d); rounds %v",
				name, sk.Phase1, ts[last-1], sk.NumRRSets(), ts)
		}
		if res := sk.Select(); res.TotalRRSets != sk.Phase1+sk.NumRRSets() {
			t.Errorf("%s: TotalRRSets = %d, want %d + %d", name, res.TotalRRSets, sk.Phase1, sk.NumRRSets())
		}
	}

	// Two budgets: some adaptive round must be the top budget's θ grow,
	// a target that is none of the rule's coverage-test sizes λ'(k)/x_i.
	g = graph.ErdosRenyi(300, 1500, stats.NewRNG(61)).UniformProb(0.05)
	bs := []int{12, 4}
	opts, targets := recordRounds(rrset.Options{})
	sk := prima.BuildSketch(g, bs, opts, stats.NewRNG(62))
	n := g.N()
	logn := math.Log(float64(n))
	ellPrime := 1 + math.Ln2/logn + math.Log(float64(len(bs)))/logn
	testSizes := map[int]bool{}
	for _, k := range bs {
		for i := 1; i <= int(math.Log2(float64(n)))-1; i++ {
			x := float64(n) / math.Pow(2, float64(i))
			testSizes[int(math.Ceil(prima.LambdaPrime(n, k, 0.5, ellPrime)/x))] = true
		}
	}
	ts := *targets
	kept := 0
	for _, target := range ts[:len(ts)-1] {
		if target > 0 && !testSizes[target] {
			kept = target
		}
	}
	if kept == 0 || sk.Phase1 < kept {
		t.Errorf("budgets %v: no adaptive round grew to the top budget's θ (Phase1 %d); rounds %v", bs, sk.Phase1, ts)
	}
}
