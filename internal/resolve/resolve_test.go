package resolve

import (
	"bytes"
	"context"
	"testing"

	"uicwelfare/internal/core"
	"uicwelfare/internal/graph"
	"uicwelfare/internal/prima"
	"uicwelfare/internal/rrset"
	"uicwelfare/internal/stats"
	"uicwelfare/internal/store"
	"uicwelfare/internal/utility"
)

// harness drives one Resolver directly, with no service or HTTP above
// it: requests of one algorithm on one small graph, varying only in
// budgets.
type harness struct {
	t    *testing.T
	r    *Resolver
	disk *store.Store
	g    *graph.Graph
	sp   core.SketchPlanner
	meta core.Meta
}

func newHarness(t *testing.T, algo string) *harness {
	t.Helper()
	disk, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	planner, meta, err := core.Lookup(algo)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:    t,
		r:    New(NewSketchCache(0, 0, 0, store.SketchCost), disk, 0, nil, func(string) bool { return true }),
		disk: disk,
		g:    graph.ErdosRenyi(300, 1800, stats.NewRNG(3)).WeightedCascade(),
		sp:   planner.(core.SketchPlanner),
		meta: meta,
	}
}

func (h *harness) req(graphID string, budgets ...int) Req {
	h.t.Helper()
	prob, err := core.NewProblem(h.g, utility.Config1(), budgets)
	if err != nil {
		h.t.Fatal(err)
	}
	return Req{GraphID: graphID, Planner: h.sp, Meta: h.meta, Problem: prob, Opts: core.Options{Eps: 0.5, Ell: 1, SketchWorkers: 2}, Seed: 1}
}

// resolve runs req, checks whether a tier or a shared build answered it
// and that the sketch serves it, and returns the sketch.
func (h *harness) resolve(req Req, wantCached bool) *rrset.Sketch {
	h.t.Helper()
	sk, cached, err := h.r.Resolve(context.Background(), req)
	if err != nil {
		h.t.Fatal(err)
	}
	if cached != wantCached {
		h.t.Fatalf("budgets %v: cached %v, want %v", req.Problem.Budgets, cached, wantCached)
	}
	if _, err := h.sp.PlanFromSketch(req.Problem, sk); err != nil {
		h.t.Fatalf("budgets %v: the sketch does not serve the request: %v", req.Problem.Budgets, err)
	}
	return sk
}

// importSketch ships sk into the resolver under a sketch key of graphID
// built for the canonical budgets keyed.
func (h *harness) importSketch(graphID string, keyed []int, sk *rrset.Sketch) {
	h.t.Helper()
	var wire bytes.Buffer
	key := Key(graphID, h.meta.SketchFamily, int(graph.CascadeIC), 0.5, 1, 1, keyed)
	if err := store.WriteSketchStreamEntry(&wire, key, sk); err != nil {
		h.t.Fatal(err)
	}
	if n, skipped, err := h.r.Import(graphID, h.g, &wire); err != nil || n != 1 || skipped != 0 {
		h.t.Fatalf("import: %d imported, %d skipped, err %v", n, skipped, err)
	}
}

// TestResolveOutcomes walks one resolver through every way a request is
// answered — a cold build, an exact hit, a hit on a dominating sketch,
// an extend, a cold build on a resident phase-1 stream, a disk reload
// and a sketch imported from elsewhere — and checks what answered, the
// counters each one moves, and what admission is quoted.
func TestResolveOutcomes(t *testing.T) {
	h := newHarness(t, core.AlgoBundleGRD)
	h.resolve(h.req("g1", 3, 5), false)
	h.resolve(h.req("g1", 3, 5), true)
	// {5,5} needs the canonical vector {5}, which {5,3} dominates.
	dominated := h.req("g1", 5, 5)
	if p := h.r.Price(&dominated); p != 0 {
		t.Fatalf("a dominated request is priced at %d bytes, want 0", p)
	}
	h.resolve(dominated, true)
	cs := h.r.Cache.Stats()
	if b, _ := h.r.Stats(); cs.Misses != 1 || cs.Hits != 2 || b.Batched != 1 || b.SketchExtends != 0 {
		t.Fatalf("after build, hit, dominated hit: cache %+v, batch %+v", cs, b)
	}

	// {8,8} is not dominated: it extends the resident {5,3} sketch.
	wider := h.req("g1", 8, 8)
	if p := h.r.Price(&wider); p <= 0 {
		t.Fatalf("an undominated request is priced at %d bytes, want > 0", p)
	}
	h.resolve(wider, false)
	if b, _ := h.r.Stats(); b.Batched != 2 || b.SketchExtends != 1 || b.RRSetsAppended <= 0 || b.CostSamples != 2 {
		t.Fatalf("after the extend: %+v", b)
	}
	// Another ε is another group: a cold build, whose θ rule reads the
	// seed's resident phase-1 stream instead of sampling its own.
	other := h.req("g1", 3, 5)
	other.Opts.Eps = 0.45
	h.resolve(other, false)
	if b, p1 := h.r.Stats(); p1.Streams != 1 || p1.SetsReused <= 0 || b.Batched != 3 || b.SketchExtends != 1 {
		t.Fatalf("the cold builds did not share one phase-1 stream: %+v, batch %+v", p1, b)
	}

	// With the memory tier dropped, the spill answers.
	h.r.Cache.Reset()
	h.resolve(h.req("g1", 3, 5), true)
	if ds := h.disk.Stats(); ds.Hits != 1 {
		t.Fatalf("disk hits %d, want 1", ds.Hits)
	}
	if b, _ := h.r.Stats(); b.Batched != 4 || b.SketchExtends != 1 {
		t.Fatalf("the disk reload ran a build: %+v", b)
	}

	// A sketch imported for another graph id serves every request of
	// its group that it dominates, without a build.
	imported, err := h.sp.BuildSketchForBudgets(context.Background(), h.req("g2", 9, 7).Problem, []int{9, 7},
		core.Options{Eps: 0.5, Ell: 1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	h.importSketch("g2", prima.CanonicalBudgets([]int{9, 7}, h.g.N()), imported)
	before, _ := h.r.Stats()
	if got := h.resolve(h.req("g2", 7, 7), true); got.NumRRSets() != imported.NumRRSets() {
		t.Fatalf("the dominated request was served %d RR sets, the import holds %d", got.NumRRSets(), imported.NumRRSets())
	}
	if after, _ := h.r.Stats(); after.Batched != before.Batched {
		t.Fatalf("a request the imported sketch dominates built anyway (batched %d -> %d)", before.Batched, after.Batched)
	}
	if n := h.r.Cache.CountPrefix("g2|"); n != 1 {
		t.Fatalf("g2 holds %d sketches, want the imported one", n)
	}
}

// TestDegenerateSketchAnswersOnlyItsKey resolves a degenerate request
// (top canonical budget ≥ n: an unsampled all-nodes sketch) and then,
// one after the other, a request whose budgets it dominates. The second
// must get a sampled sketch of its own, for PRIMA (vector-subset
// dominance: {n,2} over {2}) and IMM (max dominance: total n+2 over 4),
// and admission must price it as new work.
func TestDegenerateSketchAnswersOnlyItsKey(t *testing.T) {
	for _, algo := range []string{core.AlgoBundleGRD, core.AlgoItemDisjoint} {
		t.Run(algo, func(t *testing.T) {
			h := newHarness(t, algo)
			n := h.g.N()
			if sk := h.resolve(h.req("g1", n, 2), false); sk.NumRRSets() != 0 {
				t.Fatalf("the degenerate request sampled %d RR sets", sk.NumRRSets())
			}
			small := h.req("g1", 2, 2)
			if p := h.r.Price(&small); p <= 0 {
				t.Fatalf("a request only the degenerate sketch dominates is priced at %d bytes, want > 0", p)
			}
			if sk := h.resolve(small, false); sk.NumRRSets() == 0 {
				t.Fatal("the dominated request was served the degenerate unsampled sketch")
			}
			// The degenerate key itself still hits.
			h.resolve(h.req("g1", n, 2), true)
		})
	}
}

// TestMislabeledImportAnswersOnlyItsKey imports an IMM sketch under a
// PRIMA key. A request the key dominates is built afresh rather than
// served the other family's sketch; the exact key still resolves to the
// import, which its planner refuses (the service's
// TestImportedSketchOfAnotherFamilyIsRefused pins that end to end).
func TestMislabeledImportAnswersOnlyItsKey(t *testing.T) {
	h := newHarness(t, core.AlgoBundleGRD)
	immPlanner, _, err := core.Lookup(core.AlgoItemDisjoint)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := immPlanner.(core.SketchPlanner).BuildSketchForBudgets(context.Background(), h.req("g1", 9, 7).Problem,
		[]int{16}, core.Options{Eps: 0.5, Ell: 1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	h.importSketch("g1", []int{9, 7}, imported)

	dominated := h.req("g1", 7, 7)
	if p := h.r.Price(&dominated); p <= 0 {
		t.Fatalf("a request only the mislabeled import dominates is priced at %d bytes, want > 0", p)
	}
	if sk := h.resolve(dominated, false); sk.Family != h.meta.SketchFamily {
		t.Fatalf("the dominated request was served a %q sketch", sk.Family)
	}
	sk, cached, err := h.r.Resolve(context.Background(), h.req("g1", 9, 7))
	if err != nil || !cached || sk.Family != imported.Family {
		t.Fatalf("the exact key: cached %v, err %v; want the imported sketch", cached, err)
	}
}

// TestImportRefusesNonCanonicalKeys: a shipped entry whose key does not
// end in a canonical budget vector (positive, strictly decreasing) fails
// the import and lands nothing.
func TestImportRefusesNonCanonicalKeys(t *testing.T) {
	h := newHarness(t, core.AlgoBundleGRD)
	sk, err := h.sp.BuildSketchForBudgets(context.Background(), h.req("g1", 3, 2).Problem, []int{3, 2},
		core.Options{Eps: 0.5, Ell: 1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	group := Key("g1", h.meta.SketchFamily, int(graph.CascadeIC), 0.5, 1, 1, nil)
	for _, key := range []string{group + "2,3", group + "3,3", group + "3,0", group + "3,x", group, "g1|phase1|c0|s1"} {
		var wire bytes.Buffer
		if err := store.WriteSketchStreamEntry(&wire, key, sk); err != nil {
			t.Fatal(err)
		}
		if n, _, err := h.r.Import("g1", h.g, &wire); err == nil || n != 0 {
			t.Errorf("key %q: %d imported, err %v; want a refusal", key, n, err)
		}
	}
	if n := h.r.Cache.CountPrefix("g1|"); n != 0 {
		t.Fatalf("%d refused sketches are resident", n)
	}
}

// TestZeroBudgetsResolve: all-zero budgets canonicalise to an empty
// PRIMA vector (IMM: [0]), which is not degenerate; the request
// resolves through the scheduler like any other, and repeats as a hit.
func TestZeroBudgetsResolve(t *testing.T) {
	for _, algo := range []string{core.AlgoBundleGRD, core.AlgoItemDisjoint} {
		t.Run(algo, func(t *testing.T) {
			h := newHarness(t, algo)
			h.resolve(h.req("g1", 0, 0), false)
			h.resolve(h.req("g1", 0, 0), true)
		})
	}
}
