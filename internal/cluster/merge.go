package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The router's merged listings — GET /v1/events over every journal,
// GET /v1/traces over every trace store — are one mechanism: ask each
// source (the router's own log plus every live shard's) for a page
// after that source's cursor, merge the pages by time, cut to the
// limit, and hand back a composite cursor that resumes every source
// exactly where the merged page ended.

// routerNode is the source name of the router's own journal and trace
// store in composite cursors.
const routerNode = "router"

// mergedCursor is a decoded composite "node:seq,node:seq" cursor.
// Sequence numbers are log-local, hence one per source. A bare integer
// is accepted too (applied to every source) so a client can naively
// resume from zero.
type mergedCursor struct {
	perSource map[string]uint64
	base      uint64
}

func parseMergedCursor(raw string) (mergedCursor, error) {
	c := mergedCursor{perSource: map[string]uint64{}}
	if raw == "" {
		return c, nil
	}
	if n, err := strconv.ParseUint(raw, 10, 64); err == nil {
		c.base = n
		return c, nil
	}
	for _, part := range strings.Split(raw, ",") {
		node, seqRaw, ok := strings.Cut(part, ":")
		seq, err := strconv.ParseUint(seqRaw, 10, 64)
		if !ok || err != nil {
			return c, fmt.Errorf("bad cursor part %q (want node:seq)", part)
		}
		c.perSource[node] = seq
	}
	return c, nil
}

func (c mergedCursor) of(src string) uint64 {
	if seq, ok := c.perSource[src]; ok {
		return seq
	}
	return c.base
}

// sourceValues is the client's own query re-addressed to one source:
// every filter passes through verbatim — so a filter the backend form
// documents can never be forgotten here — with the composite cursor
// and the limit replaced by that source's (a zero limit drops it).
func sourceValues(values url.Values, cursor uint64, limit int) url.Values {
	vals := url.Values{}
	for k, v := range values {
		vals[k] = v
	}
	vals.Set("cursor", strconv.FormatUint(cursor, 10))
	vals.Del("limit")
	if limit > 0 {
		vals.Set("limit", strconv.Itoa(limit))
	}
	return vals
}

// mergedPage is what mergePages returns: the merged items, the
// composite cursor resuming every source, and the sources that could
// not be read (the page is partial when errs is non-empty).
type mergedPage[T any] struct {
	items  []T
	cursor string
	errs   map[string]string
}

// mergePages builds one merged page. fetch returns one source's page
// for the given query values plus that source's own next cursor; it is
// called concurrently for routerNode and every healthy member. key
// yields an item's merge key — its timestamp and log-local sequence
// number; ties on time order by source name, then sequence. A member
// the prober has marked down is reported, not silently omitted: the
// merged history is partial and the reader should know which log is
// missing from it — a dead shard is exactly when it gets read.
func mergePages[T any](values url.Values, cursor mergedCursor, limit int, members []BackendStatus,
	fetch func(src string, vals url.Values) (items []T, next uint64, err error),
	key func(*T) (time.Time, uint64)) mergedPage[T] {

	// page is one source's answer plus what the merge took from it: how
	// many of its items made the cut and the highest sequence among them.
	type page struct {
		src      string
		items    []T
		next     uint64
		err      error
		included int
		last     uint64
	}
	pages := []*page{{src: routerNode}}
	out := mergedPage[T]{errs: map[string]string{}}
	for _, m := range members {
		if m.Healthy {
			pages = append(pages, &page{src: m.Name})
		} else {
			out.errs[m.Name] = "backend down"
		}
	}
	var wg sync.WaitGroup
	for _, p := range pages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.items, p.next, p.err = fetch(p.src, sourceValues(values, cursor.of(p.src), limit))
		}()
	}
	wg.Wait()

	type tagged struct {
		from *page
		ts   time.Time
		seq  uint64
		item *T
	}
	var merged []tagged
	for _, p := range pages {
		if p.err != nil {
			out.errs[p.src] = p.err.Error()
			continue
		}
		for i := range p.items {
			ts, seq := key(&p.items[i])
			merged = append(merged, tagged{p, ts, seq, &p.items[i]})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if !a.ts.Equal(b.ts) {
			return a.ts.Before(b.ts)
		}
		if a.from != b.from {
			return a.from.src < b.from.src
		}
		return a.seq < b.seq
	})
	merged = merged[:min(len(merged), limit)]
	out.items = make([]T, 0, len(merged))
	for _, m := range merged {
		out.items = append(out.items, *m.item)
		m.from.included++
		m.from.last = max(m.from.last, m.seq)
	}

	// Per-source resume point: a source cut by the limit resumes at the
	// last of its items actually returned; one whose page was consumed
	// whole advances to its own reported next cursor, which also skips
	// entries its log filtered out.
	var parts []string
	for _, p := range pages {
		if p.err != nil {
			continue
		}
		at := max(p.last, cursor.of(p.src))
		if p.included == len(p.items) {
			at = max(at, p.next)
		}
		parts = append(parts, fmt.Sprintf("%s:%d", p.src, at))
	}
	sort.Strings(parts)
	out.cursor = strings.Join(parts, ",")
	return out
}

// getJSON performs one router-initiated GET against a backend and
// decodes its 200 body into out.
func (r *Router) getJSON(ctx context.Context, backend, path string, vals url.Values, out any) error {
	status, body, err := r.call(ctx, http.MethodGet, backend, path+"?"+vals.Encode(), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return json.Unmarshal(body, out)
}
