package rrset

import (
	"context"

	"uicwelfare/internal/graph"
)

// Phase1Func lends a build the phase-1 stream S₁ its θ rule reads.
// fresh is an empty collection on the build's S₁ — seeded with its base,
// sampling under its options. The func returns fresh, or a resident
// collection on the same stream that earlier builds have grown, and a
// release func the build calls once when its phase 1 is over, with the
// length of the prefix it read. In between, the build is the
// collection's only reader and grower. A canceled ctx returns ctx.Err().
type Phase1Func func(ctx context.Context, fresh *Collection) (s1 *Collection, release func(read int), err error)

// Phase1 is one build's adaptive phase on its stream S₁. The θ rule
// grows the prefix it reads round by round and reads it through View;
// that prefix is exactly the collection a private S₁ grown by the same
// rounds would hold, since a stream's sets do not depend on how its
// length was reached. So a build reads the same sets — and sizes the
// same θ — whether S₁ was resident and longer, resident and shorter, or
// fresh; only the sets past S₁'s resident length are sampled.
type Phase1 struct {
	opts    Options
	col     *Collection
	read    int
	release func(read int)
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

// Read returns the length of that prefix: the sets the θ rule read.
func (p *Phase1) Read() int { return p.read }

// Release hands a lent S₁ back; later calls do nothing.
func (p *Phase1) Release() {
	if p.release != nil {
		p.release(p.read)
		p.release = nil
	}
}
