// Package batch implements welmaxd's budget-coalescing scheduler: the
// layer that turns N concurrent sketch-bound requests differing only in
// budgets into at most two sketch operations — one build and one
// delta-build — instead of N builds.
//
// The economics come straight from the paper's RR-sketch machinery
// (PRIMA/IMM): building the sketch is the dominant cost of every
// allocation, and a sketch sized for budget vector b_max answers any
// request whose budgets it dominates — PRIMA's prefix-preserving
// ordering serves every budget in the vector it was sized for, and an
// IMM ordering selected for k serves any prefix k' ≤ k, because greedy
// max-coverage on a fixed collection is prefix-consistent. Concurrent
// allocate requests that differ only in budgets are therefore duplicate
// work, and the scheduler deduplicates them *before* they reach the
// sketch cache, whose keys include the exact budget vector.
//
// Mechanics: requests are grouped by everything that genuinely changes
// the sketch distribution — (graph, sketch family, cascade, ε, ℓ,
// seed). Gathering is driven by builds, not by a timer:
//
//   - A request whose key has no build in flight starts its build at
//     once, sized for its own budgets. It waits for nothing.
//   - A request arriving while a build of its key runs joins that build
//     when the build's frozen budget vector already dominates it.
//   - Otherwise it joins the key's one pending follow-up group, merging
//     its budgets in through the planner's family-specific merge (union
//     of budget values for PRIMA, max total for IMM). The follow-up
//     starts the moment an in-flight build of the key returns — after
//     that build published its sketch, so the follow-up's BuildFunc can
//     extend it by the θ-delta instead of building cold — or when the
//     window elapses, whichever comes first.
//
// The window is thus a cap on how long coalescing may hold a request,
// not a toll every request pays; batches grow with load by themselves
// (the longer builds take, the more requests each follow-up absorbs),
// and a burst costs at most two sketch operations. Every waiter is
// answered from its group's shared sketch and slices its own budgets
// out of it downstream (PlanFromSketch only reads).
//
// Cancellation is reference-counted: a waiter abandoning its request
// (client disconnect, job cancel) never cancels the shared build —
// the build's context is canceled only when the last waiter has left.
package batch

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uicwelfare/internal/telemetry"
)

// MergeFunc merges two canonical sketch-budget vectors of one sketch
// family into the canonical vector whose sketch serves any request
// served by either input. It must be commutative, associative, and
// idempotent (merge(a, a) == a) — the scheduler folds every group
// member's budgets through it and uses merge(frozen, b) == frozen as the
// "b is already covered" test for joiners of an in-flight build.
type MergeFunc func(a, b []int) []int

// BuildFunc runs the group's single sketch build, sized for the merged
// canonical budget vector. hit reports whether some cache tier supplied
// the sketch without a fresh build. The scheduler invokes the FIRST
// group member's BuildFunc on behalf of everyone, so the closure must
// depend only on what the group key pins (graph, family, cascade, ε, ℓ)
// plus the budgets argument — never on the submitting request's own
// budget vector.
type BuildFunc func(ctx context.Context, budgets []int) (sketch any, hit bool, err error)

// Why a group started its build (Fire.Reason).
const (
	// FireIdle: the key had no build in flight; the request was not held.
	FireIdle = "idle"
	// FireBuildDone: the in-flight build the group gathered behind returned.
	FireBuildDone = "build_done"
	// FireCap: the window elapsed before any in-flight build returned.
	FireCap = "cap"
)

// Fire describes one group reaching its build: the group key, the frozen
// merged budget vector, how many waiters share the build, the trace id
// of the request that opened the group ("" when it carried none), how
// long the group was held gathering (0 for a FireIdle group) and why it
// fired.
type Fire struct {
	Key     string
	Budgets []int
	Waiters int
	TraceID string
	Wait    time.Duration
	Reason  string
}

// Scheduler coalesces concurrent sketch builds per group key. The zero
// value is not usable; construct with New.
type Scheduler struct {
	window time.Duration

	mu   sync.Mutex
	keys map[string]*keyState

	batches   atomic.Int64 // groups that ran a build
	held      atomic.Int64 // of those, groups that gathered behind a build first
	coalesced atomic.Int64 // requests that joined an existing group

	// onFire, when set, observes every group that reaches its build. It
	// runs on the build's goroutine before the build starts, so it must
	// be cheap and must not call back into the scheduler.
	onFire func(Fire)
}

// keyState is one group key's live state. pending != nil implies
// len(running) > 0: a follow-up only ever gathers behind a build, and
// is promoted when one returns.
type keyState struct {
	running []*group // builds in flight, budgets frozen
	pending *group   // the one follow-up gathering behind them
}

// group is the set of requests sharing one build. budgets accumulates
// the merged vector while the group is pending and is frozen once it
// fires; waiters is the live-request refcount driving build
// cancellation.
type group struct {
	budgets []int
	waiters int
	traceID string    // trace id of the request that opened the group
	build   BuildFunc // the first member's
	opened  time.Time // when the group started gathering; zero if it never did
	capT    *time.Timer

	buildCtx context.Context
	cancel   context.CancelFunc

	fired  chan struct{} // closed when the build starts
	done   chan struct{} // closed once sketch/hit/err are final
	sketch any
	hit    bool
	err    error
}

// New returns a scheduler that holds a request behind an in-flight build
// of its key for at most window. A window of zero (or negative) still
// shares an in-flight build with the requests it dominates, but never
// holds one.
func New(window time.Duration) *Scheduler {
	return &Scheduler{window: window, keys: map[string]*keyState{}}
}

// SetFireHook installs the scheduler's batch-fire observer (see the
// onFire field). Install it before the scheduler receives traffic;
// replacing it while builds are starting races with them.
func (s *Scheduler) SetFireHook(fn func(Fire)) {
	s.onFire = fn
}

// Stats is the scheduler's counter snapshot: Batches counts the groups
// that ran a build, Held how many of those gathered behind an in-flight
// build before they did (Batches − Held groups started the instant they
// were submitted), Coalesced the requests beyond each group's first that
// were answered from a shared build.
type Stats struct {
	Batches   int64
	Held      int64
	Coalesced int64
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{Batches: s.batches.Load(), Held: s.held.Load(), Coalesced: s.coalesced.Load()}
}

// Dominates reports whether a sketch built for the canonical budget
// vector have also serves want under merge's semantics: exactly when
// merging want in changes nothing. It is the single definition of the
// dominance test — the scheduler's in-flight join and Covered checks and
// the sketch resolver's dominating-sketch lookup and admission price all
// rely on these exact semantics staying identical.
func Dominates(merge MergeFunc, have, want []int) bool {
	return slices.Equal(merge(have, want), have)
}

// covering returns the live in-flight group whose frozen vector
// dominates budgets, or nil. A group every waiter has left is skipped:
// its build context is already canceled.
func (ks *keyState) covering(merge MergeFunc, budgets []int) *group {
	for _, g := range ks.running {
		if g.waiters > 0 && Dominates(merge, g.budgets, budgets) {
			return g
		}
	}
	return nil
}

// Submit enters one request into the scheduler: key groups requests that
// may share a sketch, budgets is this request's canonical sketch-budget
// vector, merge folds vectors within the group, and build runs the
// group's single sketch construction. It returns the shared sketch,
// whether a cache tier (hit) or a shared group (shared) avoided a fresh
// build for this caller, and the build's error. A caller whose ctx is
// canceled while waiting detaches with ctx.Err(); the build itself is
// canceled only when every waiter has detached.
//
// On the caller's trace the wait is two spans: batch_gather until the
// group's build starts (nothing for a request that was not held), and,
// for every member but the group's first, shared_build from there until
// the build returns. The first member's trace carries the build's own
// stage spans over that interval instead.
func (s *Scheduler) Submit(ctx context.Context, key string, budgets []int, merge MergeFunc, build BuildFunc) (sketch any, hit, shared bool, err error) {
	endGather := telemetry.StartSpan(ctx, "batch_gather")
	defer endGather()

	s.mu.Lock()
	ks := s.keys[key]
	if ks == nil {
		ks = &keyState{}
		s.keys[key] = ks
	}
	g := ks.covering(merge, budgets)
	joined := true
	switch {
	case g != nil:
		g.waiters++
	case ks.pending != nil:
		g = ks.pending
		endMerge := telemetry.StartSpan(ctx, "budget_merge")
		g.budgets = merge(g.budgets, budgets)
		endMerge()
		g.waiters++
	default:
		joined = false
		buildCtx, cancel := context.WithCancel(context.Background())
		g = &group{
			budgets:  slices.Clone(budgets),
			waiters:  1,
			traceID:  telemetry.FromContext(ctx).ID(),
			build:    build,
			buildCtx: buildCtx,
			cancel:   cancel,
			fired:    make(chan struct{}),
			done:     make(chan struct{}),
		}
		if len(ks.running) == 0 {
			s.fire(key, ks, g, FireIdle)
		} else {
			g.opened = time.Now()
			g.capT = time.AfterFunc(s.window, func() { s.capElapsed(key, g) })
			ks.pending = g
		}
	}
	s.mu.Unlock()
	if joined {
		s.coalesced.Add(1)
	}

	select {
	case <-g.fired:
	case <-ctx.Done():
		s.detach(key, g)
		return nil, false, joined, ctx.Err()
	}
	endGather()
	if joined {
		defer telemetry.StartSpan(ctx, "shared_build")()
	}
	select {
	case <-g.done:
		return g.sketch, g.hit, joined, g.err
	case <-ctx.Done():
		s.detach(key, g)
		return nil, false, joined, ctx.Err()
	}
}

// Covered reports whether a group currently under key — an in-flight
// build or the pending follow-up — already has a merged budget vector
// dominating budgets: a request joining it adds no new sketch work.
// Admission control uses it to wave such requests through regardless of
// their a-priori price.
func (s *Scheduler) Covered(key string, budgets []int, merge MergeFunc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys[key]
	if ks == nil {
		return false
	}
	return ks.covering(merge, budgets) != nil ||
		(ks.pending != nil && Dominates(merge, ks.pending.budgets, budgets))
}

// fire freezes g's budgets and starts its build on a new goroutine,
// which ends when the build returns (promptly once the last waiter's
// detach cancels its context). Called with s.mu held.
func (s *Scheduler) fire(key string, ks *keyState, g *group, reason string) {
	ks.running = append(ks.running, g)
	f := Fire{Key: key, Budgets: slices.Clone(g.budgets), Waiters: g.waiters, TraceID: g.traceID, Reason: reason}
	if !g.opened.IsZero() {
		f.Wait = time.Since(g.opened)
		s.held.Add(1)
	}
	s.batches.Add(1)
	close(g.fired)
	go s.run(key, g, f)
}

// firePending promotes ks's follow-up to a running build, disarming
// its cap. Called with s.mu held and ks.pending != nil.
func (s *Scheduler) firePending(key string, ks *keyState, reason string) {
	g := ks.pending
	g.capT.Stop()
	ks.pending = nil
	s.fire(key, ks, g, reason)
}

// capElapsed is a pending group's timer callback. It loses the race
// harmlessly when a returning build promoted g, or g's last waiter
// removed it, before the lock was taken.
func (s *Scheduler) capElapsed(key string, g *group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ks := s.keys[key]; ks != nil && ks.pending == g {
		s.firePending(key, ks, FireCap)
	}
}

// run is a fired group's goroutine: the build, then the hand-over. The
// key's follow-up is promoted only after build has returned — whatever
// it returned — so everything a successful build published is visible
// to the follow-up's BuildFunc.
func (s *Scheduler) run(key string, g *group, f Fire) {
	if s.onFire != nil {
		s.onFire(f)
	}
	g.sketch, g.hit, g.err = g.build(g.buildCtx, f.Budgets)

	s.mu.Lock()
	ks := s.keys[key] // non-nil: only the last running group's exit deletes it
	ks.running = slices.DeleteFunc(ks.running, func(r *group) bool { return r == g })
	switch {
	case ks.pending != nil:
		s.firePending(key, ks, FireBuildDone)
	case len(ks.running) == 0:
		delete(s.keys, key)
	}
	s.mu.Unlock()
	close(g.done)
	g.cancel()
}

// detach drops one waiter's reference. The last one out of a pending
// group removes it; the last one out of a running group cancels its
// build context — the zeroed refcount, written under the same lock that
// Submit joins under, keeps later submits from joining it.
func (s *Scheduler) detach(key string, g *group) {
	s.mu.Lock()
	g.waiters--
	last := g.waiters == 0
	if ks := s.keys[key]; last && ks != nil && ks.pending == g {
		g.capT.Stop()
		ks.pending = nil
	}
	s.mu.Unlock()
	if last {
		g.cancel()
	}
}
