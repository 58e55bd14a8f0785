package resolve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"uicwelfare/internal/rrset"
	"uicwelfare/internal/telemetry"
)

// SketchCache is the in-memory tier of the sketch cache: a
// concurrency-safe, cost-bounded LRU of RR sketches (*rrset.Sketch)
// keyed by the tuple that determines their distribution: (graph, sketch
// family, cascade model, ε, ℓ, seed, canonical budgets — see Key).
// Sketch generation is the dominant cost of every allocation, and a
// built sketch is immutable and safe for concurrent readers, so the
// cache lets repeated and concurrent queries against the same resident
// network reuse one sketch instead of regenerating it. Besides exact
// keys it answers two group queries — the resident sketch that
// serves a request (Lookup, Covers) and the extend base
// (ExtendBase) — so the group's entries are bounded by the cache's own
// eviction, TTL and invalidation. (The optional disk tier below it
// lives in internal/store; the resolver consults it inside the build
// callback, so this type stays purely in-memory.)
//
// Eviction is cost-aware: each completed entry is priced by the
// configured cost function (approximate resident bytes — RR memberships,
// not entry count), and the cache evicts least-recently-used completed
// entries while it exceeds either the entry bound or the byte budget. A
// 64-entry bound means very different things for 1k-node and 1M-node
// graphs; the byte budget (welmaxd -cache-mb) is what actually protects
// the heap.
//
// Lookups have singleflight semantics: the first goroutine to request a
// key builds the sketch while later requesters for the same key wait on
// it and then share the result — concurrent identical queries trigger
// exactly one generation, and every waiter counts as a hit.
type SketchCache struct {
	mu         sync.Mutex
	maxEntries int
	maxCost    int64         // byte budget; 0 = unbounded
	ttl        time.Duration // completed-entry lifetime; 0 = immortal
	now        func() time.Time
	costOf     func(*rrset.Sketch) int64 // prices a completed sketch; nil = cost 0
	entries    map[string]*cacheEntry
	tick       uint64 // logical clock for LRU ordering
	totalCost  int64  // sum of completed entries' costs

	hits        int64
	misses      int64
	evictions   int64
	expirations int64

	// onExpire and onEvict are set, if at all, before the cache is
	// shared. onExpire receives each expired key. Called under the cache
	// lock, so it must stay cheap — the resolver wires it to unlink the
	// key's disk spill (one os.Remove), without which a TTL expiry would
	// "rebuild" by reloading the identical stale spill from disk.
	onExpire func(key string)
	// onEvict receives each key dropped by LRU/cost eviction with its
	// priced cost and the trace id of the request whose insert displaced
	// it ("" when the trigger carried no trace, e.g. a rebalance import).
	// Also called under the cache lock — the resolver wires it to the
	// control-plane journal's O(1) ring append.
	onEvict func(key string, cost int64, traceID string)
}

type cacheEntry struct {
	ready    chan struct{} // closed when sketch/err are set
	sketch   *rrset.Sketch
	err      error
	cost     int64 // set when the build completes; in-flight entries cost 0
	lastUsed uint64
	// expires is the TTL deadline, set when the build completes; zero
	// means the entry never expires. In-flight entries cannot expire.
	expires time.Time
	// evictOnReady marks an in-flight entry whose key was invalidated
	// mid-build (graph deleted); the builder removes it on completion.
	evictOnReady bool
	// budgets are the canonical budgets a sketch key ends in (budgetsOf),
	// parsed once at insert for the group queries.
	budgets []int
	// stream, when non-nil, makes this a resident phase-1 stream entry
	// (see LendStream) instead of a sketch: priced, bounded, aged and
	// invalidated like one, never served, spilled or shipped as one.
	stream *phase1Stream
}

// phase1Stream is a resident phase-1 stream S₁ and the turn its builds
// take: holding the 1-buffered channel's token is holding col.
type phase1Stream struct {
	turn chan struct{}
	col  *rrset.Collection
}

// NewSketchCache returns a cache bounded to maxEntries sketches (default
// 64 if maxEntries <= 0) and, when maxCostBytes > 0, to a total
// completed-entry cost of maxCostBytes as priced by cost (which may be
// nil when no byte budget is set). A positive ttl additionally bounds
// every completed entry's lifetime: past it the entry reads as a miss
// and is rebuilt, so a long-running daemon's sketches are periodically
// refreshed instead of pinning one early sample forever.
func NewSketchCache(maxEntries int, maxCostBytes int64, ttl time.Duration, cost func(*rrset.Sketch) int64) *SketchCache {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &SketchCache{
		maxEntries: maxEntries,
		maxCost:    maxCostBytes,
		ttl:        ttl,
		now:        time.Now,
		costOf:     cost,
		entries:    map[string]*cacheEntry{},
	}
}

// expireLocked removes a completed entry whose TTL has passed, counting
// the expiry. It reports whether the entry was dropped. Caller holds
// c.mu.
func (c *SketchCache) expireLocked(key string, e *cacheEntry) bool {
	if c.ttl <= 0 || e.expires.IsZero() || c.now().Before(e.expires) {
		return false
	}
	c.totalCost -= e.cost
	delete(c.entries, key)
	c.expirations++
	if c.onExpire != nil {
		c.onExpire(key)
	}
	return true
}

// sweepExpiredLocked drops every expired completed entry (Stats calls
// it so the expiration counter advances even on an idle daemon). Caller
// holds c.mu.
func (c *SketchCache) sweepExpiredLocked() {
	if c.ttl <= 0 {
		return
	}
	for k, e := range c.entries {
		select {
		case <-e.ready:
			c.expireLocked(k, e)
		default:
		}
	}
}

// liveLocked reports whether a completed entry is servable: built
// without error and not past its TTL. It does not drop an expired entry
// (lookups own expiry so the counters stay consistent). Caller holds
// c.mu and has seen e.ready closed.
func (c *SketchCache) liveLocked(e *cacheEntry) bool {
	return e.err == nil && (c.ttl <= 0 || e.expires.IsZero() || c.now().Before(e.expires))
}

// residentLocked reports whether e is completed and live or, with
// inFlight, still building. Caller holds c.mu.
func (c *SketchCache) residentLocked(e *cacheEntry, inFlight bool) bool {
	select {
	case <-e.ready:
		return c.liveLocked(e)
	default:
		return inFlight
	}
}

// hitLocked is the hit branch GetOrBuildCtx and Lookup share. When
// key has an entry that is in flight or completed and unexpired, it
// counts a hit, touches the entry's LRU position, releases c.mu and
// waits for the entry — cancelably: a canceled ctx returns ctx.Err()
// without disturbing the build. An expired completed entry reads as a
// miss and is dropped. hit = false means no servable entry, and c.mu is
// still held.
func (c *SketchCache) hitLocked(ctx context.Context, key string) (sketch *rrset.Sketch, hit bool, err error) {
	e, ok := c.entries[key]
	if !ok {
		return nil, false, nil
	}
	select {
	case <-e.ready:
		if c.expireLocked(key, e) {
			return nil, false, nil
		}
	default: // in flight: no deadline yet, always shared
	}
	c.tick++
	e.lastUsed = c.tick
	c.hits++
	c.mu.Unlock()
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
	return e.sketch, true, e.err
}

// GetOrBuildCtx returns the sketch cached under key, building it with
// build on a miss. hit reports whether an existing (possibly still
// in-flight) sketch was reused. A caller blocked on another request's
// in-flight build returns ctx.Err() as soon as its own context is
// canceled, without disturbing the build (remaining waiters still get
// the sketch). The build callback itself is expected to watch the
// builder's context — a failed or canceled build reports its error to
// every waiter and caches nothing, so the next request rebuilds.
func (c *SketchCache) GetOrBuildCtx(ctx context.Context, key string, build func() (*rrset.Sketch, error)) (sketch *rrset.Sketch, hit bool, err error) {
	c.mu.Lock()
	if sk, hit, err := c.hitLocked(ctx, key); hit {
		return sk, true, err
	}
	e := &cacheEntry{ready: make(chan struct{}), budgets: budgetsOf(key)}
	c.tick++
	e.lastUsed = c.tick
	c.entries[key] = e
	c.misses++
	// Evictions this insert causes are attributed to its trace, so the
	// journal can answer "which request displaced my warm sketch".
	traceID := telemetry.FromContext(ctx).ID()
	c.evictLocked(key, traceID)
	c.mu.Unlock()

	e.sketch, e.err = build()
	c.mu.Lock()
	switch {
	case (e.err != nil || e.evictOnReady) && c.entries[key] == e:
		delete(c.entries, key)
	case e.err == nil && c.entries[key] == e:
		// The entry graduates from in-flight to completed: price it,
		// start its TTL clock, and re-run eviction, since the cache may
		// now exceed its byte budget.
		if c.costOf != nil {
			e.cost = c.costOf(e.sketch)
		}
		if c.ttl > 0 {
			e.expires = c.now().Add(c.ttl)
		}
		c.totalCost += e.cost
		c.evictLocked(key, traceID)
	}
	c.mu.Unlock()
	close(e.ready)
	return e.sketch, false, e.err
}

// Lookup returns a resident sketch that serves the request keyed key,
// without building on a miss: the exact entry — a completed (unexpired)
// one at once, an in-flight one waited on cancelably, like
// GetOrBuildCtx's waiter path — or else a completed entry of the group
// that serves it (see servingLocked). An in-flight group build is not
// waited on that way: a request it dominates joins it through the batch
// scheduler instead. A hit is counted; a miss reports ok = false without
// creating an entry or counting a miss — the build decision belongs to
// the batch scheduler, not to this lookup.
func (c *SketchCache) Lookup(ctx context.Context, key string, serves func(budgets []int) bool) (sketch *rrset.Sketch, ok bool, err error) {
	c.mu.Lock()
	if sk, hit, err := c.hitLocked(ctx, key); hit {
		return sk, true, err
	}
	if k := c.servingLocked(groupKeyOf(key), serves, false); k != "" {
		if sk, hit, err := c.hitLocked(ctx, k); hit {
			return sk, true, err
		}
	}
	c.mu.Unlock()
	return nil, false, nil
}

// eachInGroupLocked calls fn on the group's sketch entries that are
// resident (see residentLocked). Sketch keys end in their canonical
// budgets (see Key), so the group's entries are the keys under groupKey
// with no further "|". A completed sketch whose family is not its key's
// — only a mislabeled import can be one — is skipped: it answers its
// exact key alone, whose planner refuses it. Caller holds c.mu.
func (c *SketchCache) eachInGroupLocked(groupKey string, inFlight bool, fn func(key string, e *cacheEntry)) {
	family := familyOfKey(groupKey)
	for k, e := range c.entries {
		if e.stream == nil && inGroup(k, groupKey) && c.residentLocked(e, inFlight) && (e.sketch == nil || e.sketch.Family == family) {
			fn(k, e)
		}
	}
}

// servingLocked returns the key of a resident entry of the group (see
// eachInGroupLocked) whose budgets pass serves; the most recently used
// one when several do, "" when none does. Caller holds c.mu.
func (c *SketchCache) servingLocked(groupKey string, serves func(budgets []int) bool, inFlight bool) string {
	best := ""
	var bestUsed uint64
	c.eachInGroupLocked(groupKey, inFlight, func(k string, e *cacheEntry) {
		if e.lastUsed > bestUsed && serves(e.budgets) {
			best, bestUsed = k, e.lastUsed
		}
	})
	return best
}

// Covers reports whether key's own entry or another of its group passes
// serves (see servingLocked), completed or in flight, without touching
// LRU order or counters. Admission uses it: serving such a request
// costs no new sketch work. The exact key is checked first, a map hit
// that spares the group scan.
func (c *SketchCache) Covers(key string, serves func(budgets []int) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && c.residentLocked(e, true) {
		return true
	}
	return c.servingLocked(groupKeyOf(key), serves, true) != ""
}

// ExtendBase returns the group's completed, live sketch with the most
// RR sets and the canonical budgets it was built for — the base a
// delta-build extends — or a nil sketch when the group has none with
// sets to append to. It never waits on an in-flight entry (the caller
// is itself a build callback, and waiting there could deadlock) and
// touches neither LRU order nor counters.
func (c *SketchCache) ExtendBase(groupKey string) (*rrset.Sketch, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var base *cacheEntry
	c.eachInGroupLocked(groupKey, false, func(_ string, e *cacheEntry) {
		if n := e.sketch.NumRRSets(); n > 0 && (base == nil || n > base.sketch.NumRRSets()) {
			base = e
		}
	})
	if base == nil {
		return nil, nil
	}
	return base.sketch, base.budgets
}

// CountPrefix counts the resident (completed-ok, unexpired, or
// in-flight) sketch entries whose key starts with prefix. Sketch keys lead
// with the graph id (see Key), so CountPrefix(graphID+"|") is the
// graph's sketch residency — what the cluster placement view reports
// per node.
func (c *SketchCache) CountPrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, e := range c.entries {
		if strings.HasPrefix(key, prefix) && e.stream == nil && c.residentLocked(e, true) {
			n++
		}
	}
	return n
}

// evictLocked drops least-recently-used completed entries until the
// cache fits both the entry bound and the byte budget. The entry under
// keep and entries still building are never evicted — a single sketch
// over the budget is kept until something else displaces it (evicting
// the only copy would just force an immediate rebuild). traceID names
// the request whose insert triggered the eviction (for the journal
// hook); "" when none. Caller holds c.mu.
func (c *SketchCache) evictLocked(keep, traceID string) {
	for len(c.entries) > c.maxEntries || (c.maxCost > 0 && c.totalCost > c.maxCost) {
		victim := ""
		var oldest uint64
		for k, e := range c.entries {
			if k == keep {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if victim == "" || e.lastUsed < oldest {
				victim, oldest = k, e.lastUsed
			}
		}
		if victim == "" {
			return // everything else is in flight
		}
		cost := c.entries[victim].cost
		c.totalCost -= cost
		delete(c.entries, victim)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(victim, cost, traceID)
		}
	}
}

// Put inserts an already-built sketch (a rebalancing import, not a
// local build) as a completed entry under key, reporting whether it was
// added. An existing entry — completed or still building — wins: the
// import must not disturb in-flight waiters or displace a fresher local
// build.
func (c *SketchCache) Put(key string, sketch *rrset.Sketch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		// A resident expired entry is the one exception: replacing it is
		// strictly better than the rebuild the next lookup would do.
		select {
		case <-e.ready:
			if !c.expireLocked(key, e) {
				return false
			}
		default:
			return false
		}
	}
	e := &cacheEntry{ready: make(chan struct{}), sketch: sketch, budgets: budgetsOf(key)}
	close(e.ready)
	if c.costOf != nil {
		e.cost = c.costOf(sketch)
	}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.tick++
	e.lastUsed = c.tick
	c.entries[key] = e
	c.totalCost += e.cost
	c.evictLocked(key, "")
	return true
}

// LendStream lends the caller the phase-1 stream S₁ resident under key
// — or, when none is, makes fresh (an empty collection on the stream)
// resident under key and lends that. A stream entry is priced by its
// collection's ResidentBytes and counts against the entry bound and the
// byte budget, ages by the TTL, is evicted LRU and dropped by
// InvalidateGraph like a sketch entry; each lend touches it. Holders
// take turns: the lend waits — cancelably, returning ctx.Err() — until
// no other holder has the stream, and release ends the turn, first
// re-pricing the entry (the holder may have grown it) and re-running
// eviction. Scratch the growth left behind is dropped then, so the
// resident stream holds only its sets and index. An entry evicted or
// invalidated mid-turn stays the holder's until release, which then
// prices nothing.
func (c *SketchCache) LendStream(ctx context.Context, key string, fresh *rrset.Collection) (col *rrset.Collection, release func(), err error) {
	traceID := telemetry.FromContext(ctx).ID()
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok && c.expireLocked(key, e) {
		ok = false
	}
	if !ok {
		e = &cacheEntry{ready: make(chan struct{}), stream: &phase1Stream{turn: make(chan struct{}, 1), col: fresh}}
		close(e.ready)
		e.cost = fresh.ResidentBytes()
		if c.ttl > 0 {
			e.expires = c.now().Add(c.ttl)
		}
		c.entries[key] = e
		c.totalCost += e.cost
	}
	c.tick++
	e.lastUsed = c.tick
	c.evictLocked(key, traceID)
	st := e.stream
	c.mu.Unlock()

	select {
	case st.turn <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	return st.col, func() {
		st.col.ReleaseScratch()
		c.mu.Lock()
		if c.entries[key] == e {
			cost := st.col.ResidentBytes()
			c.totalCost += cost - e.cost
			e.cost = cost
			c.evictLocked(key, traceID)
		}
		c.mu.Unlock()
		<-st.turn
	}, nil
}

// Streams counts the resident phase-1 streams.
func (c *SketchCache) Streams() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.stream != nil {
			n++
		}
	}
	return n
}

// KeyedSketch is one completed cache entry, as exported by
// CompletedForGraph for sketch shipping.
type KeyedSketch struct {
	Key    string
	Sketch *rrset.Sketch
}

// CompletedForGraph returns the completed, unexpired sketch entries
// belonging to a graph (phase-1 streams are not shipped), sorted by key for a deterministic export order. In-flight
// builds are skipped — the importer would have to wait on them, and the
// rebalancer wants a point-in-time snapshot.
func (c *SketchCache) CompletedForGraph(graphID string) []KeyedSketch {
	prefix := graphID + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []KeyedSketch
	for k, e := range c.entries {
		if !strings.HasPrefix(k, prefix) || e.stream != nil {
			continue
		}
		select {
		case <-e.ready:
			if e.err != nil || c.expireLocked(k, e) {
				continue
			}
			out = append(out, KeyedSketch{Key: k, Sketch: e.sketch})
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// InvalidateGraph drops every entry whose key belongs to the given
// graph (keys start with "<graphID>|" — see Key). Called when a
// graph is deleted so its sketches don't outlive it. Entries still
// building are marked and removed by their builder on completion (the
// graph id may be re-registered later, but its sketches are rebuilt
// fresh).
func (c *SketchCache) InvalidateGraph(graphID string) { c.drop(graphID+"|", true) }

// Reset drops every completed entry, keeping counters. In-flight builds
// are untouched: their waiters hold the entry directly, and the
// builder's delete-on-error guard compares pointers, so a build racing
// a Reset completes harmlessly.
func (c *SketchCache) Reset() { c.drop("", false) }

// drop removes the completed entries under prefix and, with
// markInFlight, marks those still building for removal on completion.
func (c *SketchCache) drop(prefix string, markInFlight bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		select {
		case <-e.ready:
			c.totalCost -= e.cost
			delete(c.entries, k)
		default:
			e.evictOnReady = e.evictOnReady || markInFlight
		}
	}
}

// CacheStats is the /v1/stats view of the in-memory sketch tier.
type CacheStats struct {
	// Entries counts resident sketches. The entry bound also counts the
	// resident phase-1 streams beside them (StatsResponse.Phase1).
	Entries int `json:"entries"`
	// EntriesByFamily breaks Entries down by sketch family ("prima",
	// "imm"), so an operator can see what kind of work a shard holds —
	// one aggregate number hides a cache full of the wrong family.
	EntriesByFamily map[string]int `json:"entries_by_family,omitempty"`
	Hits            int64          `json:"hits"`
	Misses          int64          `json:"misses"`
	Evictions       int64          `json:"evictions"`
	// Expirations counts completed entries dropped by the TTL
	// (-cache-ttl); 0 with no TTL configured.
	Expirations int64 `json:"expirations"`
	// CostBytes is the approximate resident cost of the completed
	// entries, phase-1 streams included; MaxCostBytes is the configured
	// budget (0 = unbounded).
	CostBytes    int64 `json:"cost_bytes"`
	MaxCostBytes int64 `json:"max_cost_bytes,omitempty"`
}

// Stats snapshots the counters, first sweeping expired entries so the
// TTL is visible even without traffic touching the expired keys.
func (c *SketchCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepExpiredLocked()
	families := map[string]int{}
	entries := 0
	for k, e := range c.entries {
		if e.stream == nil {
			families[familyOfKey(k)]++
			entries++
		}
	}
	return CacheStats{
		Entries:         entries,
		EntriesByFamily: families,
		Hits:            c.hits,
		Misses:          c.misses,
		Evictions:       c.evictions,
		Expirations:     c.expirations,
		CostBytes:       c.totalCost,
		MaxCostBytes:    c.maxCost,
	}
}

// familyOfKey extracts the sketch family from a cache key (its second
// "|"-separated segment — see Key).
func familyOfKey(key string) string {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) < 2 {
		return "unknown"
	}
	return parts[1]
}

// Key derives the cache key for a sketch request: graph, sketch family
// ("prima" or "imm"), cascade, ε, ℓ, seed, then the canonical budgets
// (prima.CanonicalBudgets, or [k] for IMM). The seed names the RR
// streams a build samples, so a sketch answers only requests of its own
// seed, and the batch group and the disk tier's hash follow it. With
// content-addressed graph ids the whole key is stable across daemon
// restarts, which is what lets the disk tier index spilled sketches by
// a hash of it.
func Key(graphID, family string, cascade int, eps, ell float64, seed uint64, budgets []int) string {
	return fmt.Sprintf("%s|%s|c%d|e%g|l%g|s%d|", graphID, family, cascade, eps, ell, seed) + budgetSegment(budgets)
}

// budgetSegment is a key's last segment: the canonical budgets,
// comma-separated.
func budgetSegment(budgets []int) string {
	var b strings.Builder
	for i, x := range budgets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// groupKeyOf cuts the budgets off a Key: the result equals Key with nil
// budgets, the batch scheduler's group — everything that pins the
// sketch distribution except the budgets it merges.
func groupKeyOf(key string) string {
	return key[:strings.LastIndexByte(key, '|')+1]
}

// inGroup reports whether key is a sketch key of groupKey's group: the
// budgets segment is the only part after the group key, and it holds
// no "|".
func inGroup(key, groupKey string) bool {
	return strings.HasPrefix(key, groupKey) && strings.IndexByte(key[len(groupKey):], '|') < 0
}

// budgetsOf parses the canonical budgets a sketch key ends in: positive
// and strictly decreasing (prima.CanonicalBudgets; an IMM key holds
// one). It returns nil when the key ends in anything else.
func budgetsOf(key string) []int {
	parts := strings.Split(key[strings.LastIndexByte(key, '|')+1:], ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		b, err := strconv.Atoi(p)
		if err != nil || b <= 0 || (i > 0 && b >= out[i-1]) {
			return nil
		}
		out[i] = b
	}
	return out
}
