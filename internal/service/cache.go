package service

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
// family, cascade model, ε, ℓ, canonical budgets). Sketch generation is the dominant cost of every allocation,
// and a built sketch is immutable and safe for concurrent readers, so
// the cache lets repeated and concurrent queries against the same
// resident network reuse one sketch instead of regenerating it. (The
// optional disk tier below it lives in internal/store; the service
// consults it inside the build callback, so this type stays purely
// in-memory.)
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

	// onExpire, when set, receives each expired key. Called under the
	// cache lock, so it must stay cheap — the service wires it to unlink
	// the key's disk spill (one os.Remove), without which a TTL expiry
	// would "rebuild" by reloading the identical stale spill from disk.
	onExpire func(key string)
	// onEvict, when set, receives each key dropped by LRU/cost eviction
	// with its priced cost and the trace id of the request whose insert
	// displaced it ("" when the trigger carried no trace, e.g. a
	// rebalance import). Also called under the cache lock — the service
	// wires it to the control-plane journal's O(1) ring append.
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

// SetExpireHook registers the expired-key callback (see onExpire).
func (c *SketchCache) SetExpireHook(fn func(key string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onExpire = fn
}

// SetEvictHook registers the evicted-key callback (see onEvict).
func (c *SketchCache) SetEvictHook(fn func(key string, cost int64, traceID string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvict = fn
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

// hitLocked is the hit branch GetOrBuildCtx and LookupCtx share. When
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
	e := &cacheEntry{ready: make(chan struct{})}
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

// LookupCtx returns the sketch cached under key without building on a
// miss: a completed (unexpired) entry returns immediately, an in-flight
// entry is waited on (cancelably, like GetOrBuildCtx's waiter path), and
// a miss reports ok = false without creating an entry or counting a
// miss. The batch scheduler uses it as its fast path — on a miss the
// build decision belongs to the scheduler, not to this lookup.
func (c *SketchCache) LookupCtx(ctx context.Context, key string) (sketch *rrset.Sketch, ok bool, err error) {
	c.mu.Lock()
	if sk, hit, err := c.hitLocked(ctx, key); hit {
		return sk, true, err
	}
	c.mu.Unlock()
	return nil, false, nil
}

// Resident reports whether key currently has a completed, unexpired, or
// in-flight entry, without touching LRU order or counters. Admission
// control uses it: a request whose sketch is already resident (or being
// built) triggers no new sketch work, so it is admitted regardless of
// its predicted cost.
func (c *SketchCache) Resident(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return c.liveLocked(e)
	default:
		return true // in-flight: the build is already paid for
	}
}

// Peek returns the completed, unexpired sketch under key without
// waiting on in-flight builds, touching LRU order, or counting a hit or
// miss. The batched extend path uses it from inside a build callback:
// blocking there on another key's in-flight entry could deadlock, and a
// miss must not disturb the counters the benchmarks assert on.
func (c *SketchCache) Peek(key string) (*rrset.Sketch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		if c.liveLocked(e) {
			return e.sketch, true
		}
	default:
	}
	return nil, false
}

// CountPrefix counts the resident (completed-ok, unexpired, or
// in-flight) entries whose key starts with prefix. Sketch keys lead
// with the graph id (see SketchKey), so CountPrefix(graphID+"|") is the
// graph's sketch residency — what the cluster placement view reports
// per node.
func (c *SketchCache) CountPrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, e := range c.entries {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		select {
		case <-e.ready:
			if c.liveLocked(e) {
				n++
			}
		default:
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
	e := &cacheEntry{ready: make(chan struct{}), sketch: sketch}
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

// KeyedSketch is one completed cache entry, as exported by
// CompletedForGraph for sketch shipping.
type KeyedSketch struct {
	Key    string
	Sketch *rrset.Sketch
}

// CompletedForGraph returns the completed, unexpired entries belonging
// to a graph, sorted by key for a deterministic export order. In-flight
// builds are skipped — the importer would have to wait on them, and the
// rebalancer wants a point-in-time snapshot.
func (c *SketchCache) CompletedForGraph(graphID string) []KeyedSketch {
	prefix := graphID + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []KeyedSketch
	for k, e := range c.entries {
		if !strings.HasPrefix(k, prefix) {
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
// graph (keys start with "<graphID>|" — see SketchKey). Called when a
// graph is deleted so its sketches don't outlive it. Entries still
// building are marked and removed by their builder on completion (the
// graph id may be re-registered later, but its sketches are rebuilt
// fresh).
func (c *SketchCache) InvalidateGraph(graphID string) {
	prefix := graphID + "|"
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
			e.evictOnReady = true
		}
	}
}

// Reset drops every completed entry, keeping counters. In-flight builds
// are untouched: their waiters hold the entry directly, and the
// builder's delete-on-error guard compares pointers, so a build racing
// a Reset completes harmlessly.
func (c *SketchCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		select {
		case <-e.ready:
			c.totalCost -= e.cost
			delete(c.entries, k)
		default:
		}
	}
}

// CacheStats is the /v1/stats view of the in-memory sketch tier.
type CacheStats struct {
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
	// entries; MaxCostBytes is the configured budget (0 = unbounded).
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
	for k := range c.entries {
		families[familyOfKey(k)]++
	}
	return CacheStats{
		Entries:         len(c.entries),
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
// "|"-separated segment — see SketchKey).
func familyOfKey(key string) string {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) < 2 {
		return "unknown"
	}
	return parts[1]
}

// SketchKey derives the cache key for a sketch request. family is the
// sketch kind ("prima" or "imm"), budgets must already be in canonical
// form (prima.CanonicalBudgets, or [k] for IMM). With content-addressed
// graph ids the whole key is stable across daemon restarts, which is
// what lets the disk tier index spilled sketches by a hash of it.
func SketchKey(graphID, family string, cascade int, eps, ell float64, budgets []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|c%d|e%g|l%g|", graphID, family, cascade, eps, ell)
	for i, x := range budgets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// groupKeyOf cuts the budgets off a SketchKey: the result equals
// SketchKey with nil budgets, the batch scheduler's group — everything
// that pins the sketch distribution except the budgets it merges.
func groupKeyOf(key string) string {
	return key[:strings.LastIndexByte(key, '|')+1]
}
