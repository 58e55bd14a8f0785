package welfare

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uicwelfare/internal/core"
)

func TestFacadeEndToEnd(t *testing.T) {
	rng := NewRNG(1)
	g, err := GenerateNetwork("flixster", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := Config1()
	p, err := NewProblem(g, m, []int{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Plan(context.Background(), AlgoBundleGRD, p, core.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc.Pairs() != 8 {
		t.Errorf("pairs = %d", res.Alloc.Pairs())
	}
	est := EstimateWelfare(p, res.Alloc, rng, 2000)
	if est.Mean <= 0 {
		t.Errorf("welfare %v", est.Mean)
	}
	par, err := EstimateWelfareCtx(context.Background(), p, res.Alloc, CascadeIC, NewRNG(2), 2000, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.Mean-est.Mean) > 5*(par.StdErr+est.StdErr)+1 {
		t.Errorf("parallel %v vs sequential %v", par.Mean, est.Mean)
	}
}

func TestFacadeBaselines(t *testing.T) {
	rng := NewRNG(3)
	g, err := GenerateNetwork("douban-book", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := Config3()
	p, err := NewProblem(g, m, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{AlgoItemDisjoint, AlgoBundleDisjoint} {
		res, err := core.Plan(context.Background(), name, p, core.Options{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Alloc.Seeds[0]) != 4 {
			t.Errorf("baseline allocated %d seeds", len(res.Alloc.Seeds[0]))
		}
	}
}

func TestFacadeModels(t *testing.T) {
	if !IsSupermodular(Config1().Val) {
		t.Error("config1 not supermodular")
	}
	if !IsSupermodular(RealParamsSmoothed().Val) {
		t.Error("smoothed real params not supermodular")
	}
	if IsSupermodular(RealParams().Val) {
		t.Error("raw real params should not be supermodular")
	}
	if !IsMonotone(RealParams().Val) {
		t.Error("real params not monotone")
	}
	if ConfigAdditive(4).K() != 4 {
		t.Error("additive config wrong size")
	}
	if ConfigCone(5, 2).DetUtility(NewItemSet(2)) != 5 {
		t.Error("cone config core utility wrong")
	}
	if ConfigLevelwise(4, NewRNG(1)).K() != 4 {
		t.Error("levelwise config wrong size")
	}
}

func TestFacadeGAP(t *testing.T) {
	gap, err := GAPFromModel(Config1())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap.Q1GivenNone-0.5) > 0.01 {
		t.Errorf("q1|∅ = %v", gap.Q1GivenNone)
	}
}

func TestFacadeCustomModel(t *testing.T) {
	val, err := TableValuation(2, []float64{0, 2, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(val, []float64{1, 1}, []NoiseDist{GaussianNoise(0.5), GaussianNoise(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if m.DetUtility(NewItemSet(0, 1)) != 4 {
		t.Errorf("custom model utility %v", m.DetUtility(NewItemSet(0, 1)))
	}
}

func TestFacadeGraphIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1 0.5\n1 2 0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("loaded %v", g)
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.txt"), false); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFacadeBuildGraph(t *testing.T) {
	g := BuildGraph(3, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("BuildGraph wrong: %v", g)
	}
}

func TestFacadeNetworkNames(t *testing.T) {
	names := NetworkNames()
	if len(names) != 5 || names[0] != "flixster" {
		t.Errorf("names %v", names)
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := NewRNG(4)
	if g := ErdosRenyi(100, 300, rng); g.N() != 100 {
		t.Error("ER wrong")
	}
	if g := BarabasiAlbert(100, 3, rng); g.N() != 100 {
		t.Error("BA wrong")
	}
	if g := PreferentialDirected(100, 3, rng); g.N() != 100 {
		t.Error("PD wrong")
	}
}
