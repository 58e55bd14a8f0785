package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uicwelfare/internal/telemetry"
)

// hour is a window no test outlives: a group held under it can only be
// released by a returning build.
const hour = time.Hour

// waitKey yields until cond holds for key's state (nil while the key has
// no group), failing the test after ten seconds. It is how the tests
// wait for "the submit has registered" without sleeping: registration is
// a state change under s.mu, not an event the submitter can signal.
func waitKey(t *testing.T, s *Scheduler, key string, cond func(ks *keyState) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		ok := cond(s.keys[key])
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never reached the awaited state")
		}
		runtime.Gosched()
	}
}

func pendingWaiters(n int) func(*keyState) bool {
	return func(ks *keyState) bool { return ks != nil && ks.pending != nil && ks.pending.waiters == n }
}

func runningWaiters(n int) func(*keyState) bool {
	return func(ks *keyState) bool { return ks != nil && len(ks.running) == 1 && ks.running[0].waiters == n }
}

// gate is a build that reports its start and then blocks until released
// (or its context is canceled).
type gate struct {
	started chan struct{}
	release chan struct{}
}

func newGate() *gate { return &gate{started: make(chan struct{}), release: make(chan struct{})} }

func (g *gate) wait(ctx context.Context) error {
	close(g.started)
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fireLog collects the scheduler's Fire records.
type fireLog struct {
	mu    sync.Mutex
	fires []Fire
}

func (l *fireLog) hook(f Fire) {
	l.mu.Lock()
	l.fires = append(l.fires, f)
	l.mu.Unlock()
}

func (l *fireLog) snapshot() []Fire {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.fires)
}

// unionMerge mimics the PRIMA merge: union of budget values, sorted
// non-increasingly, deduped.
func unionMerge(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range append(append([]int(nil), a...), b...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] > out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// maxMerge mimics the IMM merge: a single total budget, maxed.
func maxMerge(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 || a[0] >= b[0] {
		return append([]int(nil), a...)
	}
	return append([]int(nil), b...)
}

// TestCoalescesConcurrentSubmits drives a mixed burst at one key while
// its first build is blocked: requests the in-flight vector dominates
// share that build, the rest share ONE follow-up sized for their merged
// budgets. Two builds answer all N, every member but each group's first
// reports shared, and each is answered from its own group's sketch.
func TestCoalescesConcurrentSubmits(t *testing.T) {
	s := New(hour)
	first := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if builds.Add(1) == 1 {
			if err := first.wait(ctx); err != nil {
				return nil, false, err
			}
		}
		return budgets[0], false, nil
	}

	type answer struct {
		budget int
		sketch any
		shared bool
		err    error
	}
	answers := make(chan answer, 8)
	submit := func(budget int) {
		sk, _, shared, err := s.Submit(context.Background(), "g", []int{budget}, maxMerge, build)
		answers <- answer{budget, sk, shared, err}
	}

	go submit(5)
	<-first.started
	for _, b := range []int{1, 2, 3} { // dominated by the in-flight [5]
		go submit(b)
	}
	waitKey(t, s, "g", runningWaiters(4))
	for _, b := range []int{6, 7, 8, 9} { // not covered: one follow-up
		go submit(b)
	}
	waitKey(t, s, "g", pendingWaiters(4))
	close(first.release)

	sharedCount := 0
	for i := 0; i < 8; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatalf("submit %d: %v", a.budget, a.err)
		}
		want := 5
		if a.budget > 5 {
			want = 9
		}
		if a.sketch != want {
			t.Errorf("submit %d answered from sketch %v, want %d", a.budget, a.sketch, want)
		}
		if a.shared {
			sharedCount++
		}
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2 (the leader's and one follow-up)", got)
	}
	st := s.Stats()
	if st.Batches != 2 || st.Held != 1 {
		t.Fatalf("Batches = %d, Held = %d; want 2 and 1", st.Batches, st.Held)
	}
	if st.Coalesced != 6 || sharedCount != 6 {
		t.Fatalf("Coalesced = %d (shared %d), want 6: all but each group's first member", st.Coalesced, sharedCount)
	}
}

// TestLoneSubmitFiresWithoutTimer: with no build of its key in flight a
// submit starts its build at once — under a one-hour window it would
// otherwise never return — and is journaled as an unheld idle fire.
func TestLoneSubmitFiresWithoutTimer(t *testing.T) {
	s := New(hour)
	var log fireLog
	s.SetFireHook(log.hook)
	// The hold is the time from Submit to the build starting. The minimum
	// over a few lone submits is what the scheduler costs; any single one
	// can be stretched by the machine.
	hold := hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		build := func(ctx context.Context, budgets []int) (any, bool, error) {
			hold = min(hold, time.Since(start))
			return "sketch", false, nil
		}
		if _, _, shared, err := s.Submit(context.Background(), fmt.Sprintf("k%d", i), []int{3}, maxMerge, build); err != nil || shared {
			t.Fatalf("lone submit: shared = %v, err = %v", shared, err)
		}
	}
	if hold >= time.Millisecond {
		t.Fatalf("a lone submit was held %v before its build started, want < 1ms", hold)
	}
	for _, f := range log.snapshot() {
		if f.Reason != FireIdle || f.Wait != 0 || f.Waiters != 1 {
			t.Fatalf("lone submit fired as %+v, want an unheld idle fire", f)
		}
	}
	if st := s.Stats(); st.Batches != 20 || st.Held != 0 {
		t.Fatalf("Batches = %d, Held = %d; want 20 and 0", st.Batches, st.Held)
	}
}

// TestFollowUpMergesEveryBlockedSubmit: N uncovered submits behind a
// blocked build form exactly one follow-up whose budgets are the merge
// of all N, and it starts only once the first build's result is final.
func TestFollowUpMergesEveryBlockedSubmit(t *testing.T) {
	s := New(hour)
	var log fireLog
	s.SetFireHook(log.hook)
	first := newGate()
	var builds atomic.Int64
	var firstReturned atomic.Bool
	var followUp []int
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if builds.Add(1) == 1 {
			err := first.wait(ctx)
			firstReturned.Store(true)
			return "first", false, err
		}
		if !firstReturned.Load() {
			t.Error("follow-up started before the first build returned")
		}
		followUp = budgets
		return "second", false, nil
	}

	const n = 6
	var wg sync.WaitGroup
	submit := func(budget int, want string) {
		defer wg.Done()
		if sk, _, _, err := s.Submit(context.Background(), "g", []int{budget}, unionMerge, build); err != nil || sk != want {
			t.Errorf("submit %d: got %v, %v; want %s", budget, sk, err, want)
		}
	}
	wg.Add(1 + n)
	go submit(100, "first")
	<-first.started
	for i := 1; i <= n; i++ {
		go submit(i, "second")
	}
	waitKey(t, s, "g", pendingWaiters(n))
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d while the first is blocked under a 1h window, want 1", got)
	}
	close(first.release)
	wg.Wait()

	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
	if want := []int{6, 5, 4, 3, 2, 1}; !slices.Equal(followUp, want) {
		t.Fatalf("follow-up budgets = %v, want %v", followUp, want)
	}
	fires := log.snapshot()
	if len(fires) != 2 || fires[0].Reason != FireIdle || fires[1].Reason != FireBuildDone || fires[1].Waiters != n {
		t.Fatalf("fires = %+v, want idle then build_done with %d waiters", fires, n)
	}
	waitKey(t, s, "g", func(ks *keyState) bool { return ks == nil })
}

// TestCapFiresFollowUpWhileBuildBlocked: the window bounds how long a
// follow-up is held — it fires on the cap even though the build it
// gathered behind has not returned.
func TestCapFiresFollowUpWhileBuildBlocked(t *testing.T) {
	const window = 5 * time.Millisecond
	s := New(window)
	var log fireLog
	s.SetFireHook(log.hook)
	first := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if builds.Add(1) == 1 {
			return "first", false, first.wait(ctx)
		}
		return "second", false, nil
	}
	leader := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(context.Background(), "g", []int{4}, maxMerge, build)
		leader <- err
	}()
	<-first.started

	sk, _, shared, err := s.Submit(context.Background(), "g", []int{10}, maxMerge, build)
	if err != nil || sk != "second" || shared {
		t.Fatalf("capped follow-up: got %v, shared %v, err %v", sk, shared, err)
	}
	select {
	case <-leader:
		t.Fatal("the first build returned; the cap was never exercised")
	default:
	}
	fires := log.snapshot()
	if len(fires) != 2 || fires[1].Reason != FireCap || fires[1].Wait < window {
		t.Fatalf("fires = %+v, want the follow-up fired by the cap after >= %v", fires, window)
	}
	close(first.release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 2 || st.Held != 1 {
		t.Fatalf("Batches = %d, Held = %d; want 2 and 1", st.Batches, st.Held)
	}
}

// TestCanceledBuildStillPromotesFollowUp: when every waiter of the
// in-flight build leaves, its canceled build's return still hands over
// to the follow-up — under a one-hour window nothing else could.
func TestCanceledBuildStillPromotesFollowUp(t *testing.T) {
	s := New(hour)
	var log fireLog
	s.SetFireHook(log.hook)
	first := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if builds.Add(1) == 1 {
			return nil, false, first.wait(ctx)
		}
		return "second", false, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(ctx, "g", []int{4}, maxMerge, build)
		leader <- err
	}()
	<-first.started
	follower := make(chan error, 1)
	go func() {
		sk, _, _, err := s.Submit(context.Background(), "g", []int{10}, maxMerge, build)
		if err == nil && sk != "second" {
			err = fmt.Errorf("got %v, want second", sk)
		}
		follower <- err
	}()
	waitKey(t, s, "g", pendingWaiters(1))
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	if err := <-follower; err != nil {
		t.Fatalf("follow-up behind a canceled build: %v", err)
	}
	if fires := log.snapshot(); len(fires) != 2 || fires[1].Reason != FireBuildDone {
		t.Fatalf("fires = %+v, want the follow-up promoted by the canceled build's return", fires)
	}
}

// TestLastWaiterLeavingPendingGroupRemovesIt: a follow-up nobody waits
// for any more never builds.
func TestLastWaiterLeavingPendingGroupRemovesIt(t *testing.T) {
	s := New(hour)
	first := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		builds.Add(1)
		return "sketch", false, first.wait(ctx)
	}
	leader := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(context.Background(), "g", []int{4}, maxMerge, build)
		leader <- err
	}()
	<-first.started

	ctx, cancel := context.WithCancel(context.Background())
	follower := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(ctx, "g", []int{10}, maxMerge, build)
		follower <- err
	}()
	waitKey(t, s, "g", pendingWaiters(1))
	if !s.Covered("g", []int{9}, maxMerge) {
		t.Error("Covered([9]) = false with a pending [10] follow-up")
	}
	cancel()
	if err := <-follower; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower: err = %v, want context.Canceled", err)
	}
	waitKey(t, s, "g", func(ks *keyState) bool { return ks != nil && ks.pending == nil })
	if s.Covered("g", []int{9}, maxMerge) {
		t.Error("Covered([9]) = true after the follow-up's last waiter left")
	}
	close(first.release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	waitKey(t, s, "g", func(ks *keyState) bool { return ks == nil })
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1: the abandoned follow-up must not build", got)
	}
}

// TestWaiterSpansSplitAtFire: every waiter's batch_gather span ends when
// its group's build starts, not when it returns; the rest of a joiner's
// wait is a shared_build span, while the group's first member — whose
// trace carries the build's own stages — records none.
func TestWaiterSpansSplitAtFire(t *testing.T) {
	s := New(hour)
	first, second := newGate(), newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if builds.Add(1) == 1 {
			return "first", false, first.wait(ctx)
		}
		return "second", false, second.wait(ctx)
	}
	traces := make([]*telemetry.Trace, 3)
	var wg sync.WaitGroup
	submit := func(i, budget int) {
		defer wg.Done()
		traces[i] = telemetry.NewTrace(fmt.Sprintf("t%d", i), true)
		ctx := telemetry.NewContext(context.Background(), traces[i])
		if _, _, _, err := s.Submit(ctx, "g", []int{budget}, maxMerge, build); err != nil {
			t.Error(err)
		}
	}
	wg.Add(3)
	go submit(0, 4)
	<-first.started
	go submit(1, 10) // opens the follow-up
	waitKey(t, s, "g", pendingWaiters(1))
	go submit(2, 12) // joins it
	waitKey(t, s, "g", pendingWaiters(2))
	close(first.release)
	<-second.started

	// The follow-up's build is blocked, yet both of its members must
	// already have closed their gather spans.
	gathered := func(tr *telemetry.Trace) bool { return tr.Stages()["batch_gather"].Count == 1 }
	deadline := time.Now().Add(10 * time.Second)
	for !gathered(traces[1]) || !gathered(traces[2]) {
		if time.Now().After(deadline) {
			t.Fatal("batch_gather still open while the group's build runs")
		}
		runtime.Gosched()
	}
	if n := traces[2].Stages()["shared_build"].Count; n != 0 {
		t.Fatalf("shared_build closed %d times before the build returned", n)
	}
	close(second.release)
	wg.Wait()

	for i, want := range []struct{ merge, shared int }{{0, 0}, {0, 0}, {1, 1}} {
		st := traces[i].Stages()
		if st["batch_gather"].Count != 1 || st["budget_merge"].Count != want.merge || st["shared_build"].Count != want.shared {
			t.Errorf("trace %d stages = %+v, want 1 batch_gather, %d budget_merge, %d shared_build", i, st, want.merge, want.shared)
		}
	}
}

// TestDistinctKeysDoNotCoalesce asserts group isolation: different keys
// build independently.
func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	s := New(hour)
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		builds.Add(1)
		return len(budgets), false, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, _, err := s.Submit(context.Background(), fmt.Sprintf("k%d", i), []int{5}, maxMerge, build); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 4 {
		t.Fatalf("builds = %d, want 4", got)
	}
	if st := s.Stats(); st.Coalesced != 0 {
		t.Fatalf("Coalesced = %d, want 0", st.Coalesced)
	}
}

// TestCanceledWaiterDoesNotCancelBuild: one of two waiters abandons
// mid-build; the build must complete for the survivor.
func TestCanceledWaiterDoesNotCancelBuild(t *testing.T) {
	s := New(hour)
	g := newGate()
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if err := g.wait(ctx); err != nil {
			return nil, false, err
		}
		return "ok", false, nil
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(ctx1, "g", []int{3}, maxMerge, build)
		canceled <- err
	}()
	<-g.started
	type result struct {
		sketch any
		err    error
	}
	survivor := make(chan result, 1)
	go func() {
		sk, _, _, err := s.Submit(context.Background(), "g", []int{2}, maxMerge, build)
		survivor <- result{sk, err}
	}()
	waitKey(t, s, "g", runningWaiters(2))

	cancel1()
	// The canceled waiter returns promptly with its own ctx error.
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	close(g.release)
	if r := <-survivor; r.err != nil || r.sketch != "ok" {
		t.Fatalf("surviving waiter got %v, %v; want ok", r.sketch, r.err)
	}
}

// TestAllWaitersCanceledCancelsBuild: once the last waiter detaches, the
// build context must be canceled so the work stops.
func TestAllWaitersCanceledCancelsBuild(t *testing.T) {
	s := New(hour)
	started := make(chan struct{})
	buildCanceled := make(chan struct{})
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		close(started)
		<-ctx.Done()
		close(buildCanceled)
		return nil, false, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(ctx, "g", []int{3}, maxMerge, build)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-buildCanceled:
	case <-time.After(2 * time.Second):
		t.Fatal("build context was never canceled after the last waiter left")
	}
}

// TestJoinerAfterAllWaitersDetachedStartsFresh: when every waiter of an
// in-flight group cancels, a later live request — even one the dead
// group's vector dominates — must get a fresh group with a live build
// context instead of inheriting the dead group's cancellation.
func TestJoinerAfterAllWaitersDetachedStartsFresh(t *testing.T) {
	s := New(hour)
	g := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		if builds.Add(1) == 1 {
			return nil, false, g.wait(ctx)
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		return "ok", false, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(ctx, "g", []int{5}, maxMerge, build)
		leaderErr <- err
	}()
	<-g.started
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	// A later live request must not be poisoned by the dead group.
	sk, _, shared, err := s.Submit(context.Background(), "g", []int{3}, maxMerge, build)
	if err != nil {
		t.Fatalf("live request after dead group: %v (inherited the dead group's cancellation?)", err)
	}
	if sk != "ok" || shared {
		t.Fatalf("got %v (shared %v), want ok from a build of its own", sk, shared)
	}
}

// TestCoveredReportsInFlightDominance pins the admission-control seam:
// Covered is true exactly while a live group's merged vector dominates
// the probe budgets.
func TestCoveredReportsInFlightDominance(t *testing.T) {
	s := New(hour)
	g := newGate()
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		return "ok", false, g.wait(ctx)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, _, err := s.Submit(context.Background(), "g", []int{10}, maxMerge, build); err != nil {
			t.Error(err)
		}
	}()
	<-g.started // build for [10] in flight
	if !s.Covered("g", []int{7}, maxMerge) {
		t.Error("Covered([7]) = false with [10] in flight")
	}
	if s.Covered("g", []int{12}, maxMerge) {
		t.Error("Covered([12]) = true with only [10] in flight")
	}
	if s.Covered("other", []int{7}, maxMerge) {
		t.Error("Covered = true for a key with no group")
	}
	close(g.release)
	<-done
	waitKey(t, s, "g", func(ks *keyState) bool { return ks == nil })
	if s.Covered("g", []int{7}, maxMerge) {
		t.Error("Covered = true after the group completed")
	}
}

// TestLateDominatedRequestJoinsInFlightBuild: a submit arriving while a
// build runs, whose budgets the frozen vector dominates, must join that
// build instead of starting a second one.
func TestLateDominatedRequestJoinsInFlightBuild(t *testing.T) {
	s := New(hour)
	g := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		builds.Add(1)
		return "sketch", false, g.wait(ctx)
	}
	leader := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(context.Background(), "g", []int{10}, maxMerge, build)
		leader <- err
	}()
	<-g.started // build in flight for [10]

	late := make(chan bool, 1)
	go func() {
		_, _, shared, err := s.Submit(context.Background(), "g", []int{4}, maxMerge, build)
		if err != nil {
			t.Error(err)
		}
		late <- shared
	}()
	waitKey(t, s, "g", runningWaiters(2))
	close(g.release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if !<-late {
		t.Fatal("late dominated request did not share the in-flight build")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
}

// TestLateUncoveredRequestOpensNewGroup: a submit arriving while a build
// runs whose budgets exceed the frozen vector must get a build of its
// own, sized for its own budgets.
func TestLateUncoveredRequestOpensNewGroup(t *testing.T) {
	s := New(hour)
	g := newGate()
	var builds atomic.Int64
	var mu sync.Mutex
	var sizes []int
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		mu.Lock()
		sizes = append(sizes, budgets[0])
		mu.Unlock()
		if builds.Add(1) == 1 {
			return "sketch", false, g.wait(ctx)
		}
		return "sketch", false, nil
	}
	leader := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(context.Background(), "g", []int{4}, maxMerge, build)
		leader <- err
	}()
	<-g.started

	lateDone := make(chan error, 1)
	go func() {
		_, _, _, err := s.Submit(context.Background(), "g", []int{10}, maxMerge, build)
		lateDone <- err
	}()
	waitKey(t, s, "g", pendingWaiters(1))
	close(g.release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := <-lateDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{4, 10}; !slices.Equal(sizes, want) {
		t.Fatalf("build sizes = %v, want %v", sizes, want)
	}
}

// TestBuildErrorReachesEveryWaiter: a failing build reports the same
// error to every member of its group and to nobody else — the follow-up
// behind it is still promoted and succeeds — and nothing is cached: the
// next submit builds afresh.
func TestBuildErrorReachesEveryWaiter(t *testing.T) {
	s := New(hour)
	boom := errors.New("boom")
	g := newGate()
	var builds atomic.Int64
	build := func(ctx context.Context, budgets []int) (any, bool, error) {
		switch builds.Add(1) {
		case 1:
			if err := g.wait(ctx); err != nil {
				return nil, false, err
			}
			return nil, false, boom
		case 2:
			return "second", false, nil
		}
		return nil, false, boom
	}
	var wg sync.WaitGroup
	submit := func(budget int, wantErr error) {
		defer wg.Done()
		if _, _, _, err := s.Submit(context.Background(), "g", []int{budget}, maxMerge, build); !errors.Is(err, wantErr) {
			t.Errorf("submit %d: err = %v, want %v", budget, err, wantErr)
		}
	}
	wg.Add(1)
	go submit(5, boom)
	<-g.started
	wg.Add(2)
	go submit(2, boom)
	go submit(3, boom)
	waitKey(t, s, "g", runningWaiters(3))
	wg.Add(1)
	go submit(9, nil) // the follow-up: a group of its own
	waitKey(t, s, "g", pendingWaiters(1))
	close(g.release)
	wg.Wait()
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
	if _, _, _, err := s.Submit(context.Background(), "g", []int{2}, maxMerge, build); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if builds.Load() != 3 {
		t.Fatalf("builds = %d, want 3", builds.Load())
	}
}
