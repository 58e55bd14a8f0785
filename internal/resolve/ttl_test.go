package resolve

import (
	"context"
	"sync"
	"testing"
	"time"

	"uicwelfare/internal/rrset"
)

// fakeClock drives the cache's TTL deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func TestSketchCacheTTLExpiry(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := NewSketchCache(8, 0, time.Minute, nil)
	c.now = clock.now

	builds := 0
	build := func() (*rrset.Sketch, error) { builds++; return &rrset.Sketch{}, nil }

	if _, hit, _ := c.GetOrBuildCtx(context.Background(), "k", build); hit {
		t.Fatal("first lookup hit an empty cache")
	}
	// Within the TTL the entry serves hits.
	clock.advance(30 * time.Second)
	if _, hit, _ := c.GetOrBuildCtx(context.Background(), "k", build); !hit {
		t.Fatal("lookup inside TTL missed")
	}
	// A hit does not extend the deadline: past the original TTL the entry
	// reads as a miss and this caller rebuilds.
	clock.advance(31 * time.Second)
	if _, hit, _ := c.GetOrBuildCtx(context.Background(), "k", build); hit {
		t.Fatal("lookup past TTL still hit")
	}
	if builds != 2 {
		t.Fatalf("built %d times, want 2", builds)
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", st.Expirations)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want the rebuilt entry", st.Entries)
	}

	// Stats sweeps expired entries even with no traffic touching them,
	// and the expire hook fires so the disk tier can drop its spill too.
	var expired []string
	c.onExpire = func(key string) { expired = append(expired, key) }
	clock.advance(2 * time.Minute)
	st = c.Stats()
	if st.Entries != 0 || st.Expirations != 2 {
		t.Errorf("after idle sweep: entries=%d expirations=%d, want 0 and 2", st.Entries, st.Expirations)
	}
	if len(expired) != 1 || expired[0] != "k" {
		t.Errorf("expire hook saw %v, want [k]", expired)
	}
}

func TestSketchCachePutAndExport(t *testing.T) {
	c := NewSketchCache(8, 0, 0, nil)
	keyA := Key("gA", "prima", 0, 0.5, 1, 1, []int{2, 2})
	keyB := Key("gB", "imm", 0, 0.5, 1, 1, []int{3})

	sketchA := &rrset.Sketch{Family: "prima"}
	if !c.Put(keyA, sketchA) {
		t.Fatal("Put into empty cache rejected")
	}
	if c.Put(keyA, &rrset.Sketch{Family: "prima"}) {
		t.Fatal("Put displaced a resident entry")
	}
	if v, hit, _ := c.GetOrBuildCtx(context.Background(), keyA, func() (*rrset.Sketch, error) { return nil, nil }); !hit || v != sketchA {
		t.Fatalf("imported entry not served: v=%v hit=%v", v, hit)
	}
	c.Put(keyB, &rrset.Sketch{Family: "imm"})

	got := c.CompletedForGraph("gA")
	if len(got) != 1 || got[0].Key != keyA || got[0].Sketch != sketchA {
		t.Fatalf("CompletedForGraph(gA) = %+v", got)
	}
	if got := c.CompletedForGraph("gC"); len(got) != 0 {
		t.Fatalf("CompletedForGraph(gC) = %+v", got)
	}

	st := c.Stats()
	if st.EntriesByFamily["prima"] != 1 || st.EntriesByFamily["imm"] != 1 {
		t.Errorf("entries_by_family = %v", st.EntriesByFamily)
	}
}
