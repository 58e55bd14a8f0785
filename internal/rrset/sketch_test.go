package rrset

import (
	"context"
	"errors"
	"strings"
	"testing"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/stats"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Eps != 0.5 || o.Ell != 1 {
		t.Errorf("defaults %+v", o)
	}
	o = Options{Eps: 0.2, Ell: 2}.WithDefaults()
	if o.Eps != 0.2 || o.Ell != 2 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}

// TestExtendSketchChecksBeforeTheRule: the shared tail refuses what no
// θ rule could serve — no sketch, a degenerate one, a sketch of another
// graph — before it asks the family's rule, and passes the rule's
// refusal through.
func TestExtendSketchChecksBeforeTheRule(t *testing.T) {
	g := graph.Line(40, 0.5)
	col := NewCollection(g)
	grow(t, col, 100, stats.NewRNG(1))
	sk := &Sketch{Family: "test", Col: col, K: 3}
	asked := false
	rule := func(int) (int64, int, error) { asked = true; return 200, 3, nil }
	ctx, rng := context.Background(), stats.NewRNG(2)

	for name, base := range map[string]*Sketch{"nil": nil, "all-nodes": {Family: "test", K: 40, AllNodes: 40}} {
		if _, err := ExtendSketch(ctx, g, base, Options{}, rng, rule); !errors.Is(err, ErrNotExtendable) {
			t.Errorf("%s sketch: err = %v, want ErrNotExtendable", name, err)
		}
	}
	if _, err := ExtendSketch(ctx, graph.Line(41, 0.5), sk, Options{}, rng, rule); err == nil || !strings.HasPrefix(err.Error(), "test: ") {
		t.Errorf("other graph: err = %v, want the family's refusal", err)
	}
	if asked {
		t.Fatal("the θ rule ran for a sketch the tail must refuse")
	}
	refused := errors.New("refused")
	if _, err := ExtendSketch(ctx, g, sk, Options{}, rng, func(int) (int64, int, error) { return 0, 0, refused }); err != refused {
		t.Errorf("rule refusal: err = %v", err)
	}
	ext, err := ExtendSketch(ctx, g, sk, Options{}, rng, rule)
	if err != nil || ext.Family != "test" || ext.NumRRSets() != 200 || sk.NumRRSets() != 100 {
		t.Fatalf("growth: %v; family %q, %d sets (base %d)", err, ext.Family, ext.NumRRSets(), sk.NumRRSets())
	}
}
