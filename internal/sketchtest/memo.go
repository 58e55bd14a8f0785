package sketchtest

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
)

// checkMemo holds a sketch's memoised answer against the uncached
// reference on its own collection: Select's seeds and coverage are
// Col.NodeSelection(K)'s, the coverage-at-prefix vector is the
// from-scratch recount of every prefix, and asking again changes nothing.
func checkMemo(t *testing.T, when string, sk *rrset.Sketch) {
	t.Helper()
	want, frac := sk.Col.NodeSelection(sk.K)
	for round := 0; round < 2; round++ {
		res := sk.Select()
		if !slices.Equal(res.Seeds, want) || res.Coverage != frac {
			t.Fatalf("%s: Select #%d = %v (%.4f), NodeSelection(%d) = %v (%.4f)", when, round+1, res.Seeds, res.Coverage, sk.K, want, frac)
		}
	}
	cov := sk.Selection().Covered
	if len(cov) != len(want) {
		t.Fatalf("%s: %d coverage counts for %d seeds", when, len(cov), len(want))
	}
	for b := 1; b <= len(want); b++ {
		if c := int64(sk.Col.CoverageOf(want[:b])); cov[b-1] != c {
			t.Fatalf("%s: coverage at prefix %d = %d, recount = %d", when, b, cov[b-1], c)
		}
	}
}

// checkAdopted holds a freshly decoded sketch to its persisted memo:
// the memo is already filled before any Select — the first Select reads
// the adopted selection instead of running the greedy — and the answer
// is the uncached reference's.
func checkAdopted(t *testing.T, when string, sk *rrset.Sketch) {
	t.Helper()
	if !sk.MemoFilled() {
		t.Fatalf("%s: decoded sketch has no selection before its first Select: the greedy would run", when)
	}
	checkMemo(t, when, sk)
}

// SelectMemoMatchesUncachedReference walks every row's sketch
// through every way the system derives one — built, parallel-grown,
// extended with and without growth through its family's ExtendSketchCtx,
// cloned, round-tripped through the .wms and WMSSTRM codecs — and checks
// each stage's memoised selection; bases are selected before they are
// derived from, so a stale memo carried along would show.
func SelectMemoMatchesUncachedReference(t *testing.T, rows []Row) {
	ctx := context.Background()
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(101)).WeightedCascade()
	for _, cascade := range cascades {
		for _, row := range rows {
			opts := rrset.Options{Cascade: cascade}
			name := fmt.Sprintf("cascade %d %s", cascade, row.Name)
			top := row.top()

			built := row.mustBuild(t, g, opts, 7)
			checkMemo(t, name+" built", built)
			par := row.mustBuild(t, g, rrset.Options{Cascade: cascade, Workers: 4}, 8)
			checkMemo(t, name+" parallel-grown", par)

			grownBudgets := append([]int{top + 30}, row.Budgets...)
			grown, err := row.Extend(ctx, g, built, grownBudgets, opts, stats.NewRNG(9))
			if err != nil {
				t.Fatal(err)
			}
			if grown.NumRRSets() <= built.NumRRSets() || grown.K != top+30 {
				t.Fatalf("%s: extension to budget %d did not grow: %d -> %d sets, ceiling %d", name, top+30, built.NumRRSets(), grown.NumRRSets(), grown.K)
			}
			checkMemo(t, name+" extended (growth)", grown)

			// A ceiling-top sketch over the collection sized for top+30 has
			// room to spare: raising it to top+1 needs no growth, but a
			// ceiling its memo stops short of.
			roomy := &rrset.Sketch{Family: built.Family, Col: grown.Col, K: top, Phase1: grown.Phase1, LB: grown.LB}
			checkMemo(t, name+" restored over a larger collection", roomy)
			raised, err := row.Extend(ctx, g, roomy, []int{top + 1}, opts, stats.NewRNG(10))
			if err != nil {
				t.Fatal(err)
			}
			if raised.Col != roomy.Col || raised.K != top+1 {
				t.Fatalf("%s: want a no-growth extension to ceiling %d, got ceiling %d, shared collection %v", name, top+1, raised.K, raised.Col == roomy.Col)
			}
			checkMemo(t, name+" extended (no growth, larger ceiling)", raised)
			checkMemo(t, name+" base after its extension", roomy)
			checkMemo(t, name+" built after its extension", built)

			same, err := row.Extend(ctx, g, roomy, []int{top - 1}, opts, stats.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			if same != roomy {
				t.Fatalf("%s: a no-growth extension under an unchanged ceiling should be the base sketch, memo and all", name)
			}

			checkMemo(t, name+" cloned", &rrset.Sketch{Family: grown.Family, Col: grown.Col.Clone(), K: grown.K, Phase1: grown.Phase1, LB: grown.LB})

			var wms bytes.Buffer
			if err := store.EncodeSketch(&wms, grown); err != nil {
				t.Fatal(err)
			}
			decoded, err := store.DecodeSketch(&wms, g)
			if err != nil {
				t.Fatal(err)
			}
			checkAdopted(t, name+" store round trip", decoded)
			if got, want := decoded.Select().Seeds, grown.Select().Seeds; !slices.Equal(got, want) {
				t.Fatalf("%s: round-tripped sketch selects %v, original %v", name, got, want)
			}

			var stream bytes.Buffer
			if err := store.WriteSketchStreamEntry(&stream, "key", grown); err != nil {
				t.Fatal(err)
			}
			if _, err := store.ReadSketchStream(&stream, g, func(_ string, sk *rrset.Sketch) error {
				checkAdopted(t, name+" stream round trip", sk)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// SelectReportConcurrentFirstCallers: 32 goroutines issuing the first
// SelectReport on one fresh sketch of each row all get the reference
// result and the same report sequence.
func SelectReportConcurrentFirstCallers(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(300, 3, stats.NewRNG(102)).WeightedCascade()
	for _, row := range rows {
		sk := row.mustBuild(t, g, rrset.Options{}, 12)
		want, frac := sk.Col.NodeSelection(row.top())
		var wantReports [][]graph.NodeID
		for b := 16; b < len(want); b += 16 {
			wantReports = append(wantReports, want[:b])
		}
		wantReports = append(wantReports, want)

		results := make([]rrset.Result, 32)
		reports := make([][][]graph.NodeID, 32)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = sk.SelectReport(func(prefix []graph.NodeID) {
					reports[i] = append(reports[i], slices.Clone(prefix))
				})
			}()
		}
		wg.Wait()
		for i, res := range results {
			if !slices.Equal(res.Seeds, want) || res.Coverage != frac || res.NumRRSets != sk.NumRRSets() {
				t.Fatalf("%s caller %d: %v (%.4f), want %v (%.4f)", row.Name, i, res.Seeds, res.Coverage, want, frac)
			}
			if !slices.EqualFunc(reports[i], wantReports, slices.Equal[[]graph.NodeID]) {
				t.Fatalf("%s caller %d: report sequence %v, want %v", row.Name, i, reports[i], wantReports)
			}
		}
	}
}

// SelectSeedsBelongToCaller: writing into or appending to a returned
// Seeds slice cannot change what the next caller reads.
func SelectSeedsBelongToCaller(t *testing.T, rows []Row) {
	g := graph.BarabasiAlbert(200, 3, stats.NewRNG(103)).WeightedCascade()
	for _, row := range rows {
		sk := row.mustBuild(t, g, rrset.Options{}, 13)
		want, _ := sk.Col.NodeSelection(row.top())

		first := sk.Select().Seeds
		for i := range first {
			first[i] = -1
		}
		_ = append(first[:3], -2, -3)
		if got := sk.Select().Seeds; !slices.Equal(got, want) {
			t.Fatalf("%s: after mutating a returned Seeds the next Select = %v, want %v", row.Name, got, want)
		}
	}
}
