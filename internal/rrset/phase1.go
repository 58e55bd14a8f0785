package rrset

import (
	"context"

	"uicwelfare/internal/graph"
	"uicwelfare/internal/telemetry"
)

// Phase1Func lends a build the phase-1 stream S₁ its θ rule reads.
// fresh is an empty collection on the build's S₁ — seeded with its base,
// sampling under its options. The func returns fresh, or a resident
// collection on the same stream that earlier builds have grown, and a
// release func the build calls once when its phase 1 is over, with the
// length of the prefix it read and the number of its greedy selections
// the stream's memo answered (see Phase1.Select). In between, the build
// is the collection's only reader and grower. A canceled ctx returns
// ctx.Err().
type Phase1Func func(ctx context.Context, fresh *Collection) (s1 *Collection, release func(read, reused int), err error)

// Phase1 is one build's adaptive phase on its stream S₁. The θ rule
// grows the prefix it reads round by round and reads it through View
// and Select; that prefix is exactly the collection a private S₁ grown
// by the same rounds would hold, since a stream's sets do not depend on
// how its length was reached. So a build reads the same sets — and
// sizes the same θ — whether S₁ was resident and longer, resident and
// shorter, or fresh; only the sets past S₁'s resident length are
// sampled.
type Phase1 struct {
	opts    Options
	col     *Collection
	read    int
	release func(read, reused int)
	reused  int
}

// OpenPhase1 starts a build's phase 1 on the S₁ with the given base:
// lent by opts.Phase1Stream when set, else a private collection.
func (o Options) OpenPhase1(ctx context.Context, g *graph.Graph, base uint64) (*Phase1, error) {
	fresh := o.NewCollection(g)
	fresh.SeedStream(base)
	p := &Phase1{opts: o, col: fresh}
	if o.Phase1Stream != nil {
		col, release, err := o.Phase1Stream(ctx, fresh)
		if err != nil {
			return nil, err
		}
		p.col, p.release = col, release
	}
	return p, nil
}

// Grow extends the prefix the θ rule reads to at least target sets,
// sampling only what S₁ does not hold yet; round labels the growth's
// StageSketch progress events.
func (p *Phase1) Grow(ctx context.Context, target int64, round int) error {
	if target <= int64(p.read) {
		return nil
	}
	if err := p.opts.Grow(ctx, p.col, target, round, nil); err != nil {
		return err
	}
	p.read = int(target)
	return nil
}

// View is the prefix of S₁ the θ rule has grown so far.
func (p *Phase1) View() Prefix { return p.col.Prefix(p.read) }

// Select is the θ rule's coverage test, View().Select(k), run under a
// greedy_select span. The answer is remembered on S₁: the selection is
// a pure function of (S₁[:l], k) and a stream's prefix never changes,
// so an order an earlier test left for prefix length l answers every k
// up to its length exactly (greedy picks one node at a time: Order[:k]
// is the budget-k order, Covered[k-1] its coverage), with no greedy run
// and no span. On a lent S₁ that earlier test may be an earlier
// build's; a private S₁'s memo goes with its build.
func (p *Phase1) Select(ctx context.Context, k int) Selection {
	k = min(k, p.col.N())
	if sel, ok := p.col.selections.get(p.read, k); ok {
		p.reused++
		return sel
	}
	endSel := telemetry.StartSpan(ctx, "greedy_select")
	sel := p.View().Select(k)
	endSel()
	p.col.selections.put(sel)
	return sel
}

// Read returns the length of that prefix: the sets the θ rule read.
func (p *Phase1) Read() int { return p.read }

// Release hands a lent S₁ back; later calls do nothing.
func (p *Phase1) Release() {
	if p.release != nil {
		p.release(p.read, p.reused)
		p.release = nil
	}
}

// prefixMemoCap bounds how many prefix lengths one stream remembers an
// order for; a memo at the cap starts over. A θ rule reads at most
// ⌊log₂ n⌋ prefix lengths per budget, so a few dozen cover the rounds
// of every request shape a stream serves at once.
const prefixMemoCap = 32

// prefixMemo is a collection's memo of greedy selections on its
// prefixes, keyed by prefix length (Selection.Sets): the longest order
// asked for at each length. Only the holder of a lent stream's turn
// reads or writes it.
type prefixMemo map[int]Selection

// get returns the budget-k selection on the first l sets, if the
// remembered order for l is at least k long.
func (m prefixMemo) get(l, k int) (Selection, bool) {
	sel, ok := m[l]
	if !ok || len(sel.Order) < k {
		return Selection{}, false
	}
	return Selection{Order: sel.Order[:k:k], Covered: sel.Covered[:k:k], Sets: l}, true
}

// put remembers sel for its prefix length, in place of the shorter
// order get refused there.
func (m *prefixMemo) put(sel Selection) {
	if _, ok := (*m)[sel.Sets]; !ok && len(*m) >= prefixMemoCap {
		clear(*m)
	}
	if *m == nil {
		*m = prefixMemo{}
	}
	(*m)[sel.Sets] = sel
}

// bytes is what the remembered orders hold resident (MemoBytes each).
func (m prefixMemo) bytes() int64 {
	var b int64
	for _, sel := range m {
		b += MemoBytes(len(sel.Order))
	}
	return b
}
