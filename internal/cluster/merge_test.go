package cluster

import (
	"errors"
	"fmt"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"
)

// item is a synthetic merged-listing entry: src/seq name it in
// failures, at is its merge timestamp in seconds.
type item struct {
	src string
	seq uint64
	at  int
}

func itemKey(it *item) (time.Time, uint64) { return time.Unix(int64(it.at), 0), it.seq }

// source is one synthetic log: every entry it holds (ascending seq),
// or the error every query of it fails with.
type source struct {
	items []item
	err   error
}

// fetchFrom serves pages from synthetic logs the way a backend does:
// entries after the cursor, cut to the limit, next = last examined.
// It records the values each source was asked with (mergePages calls
// it from one goroutine per source).
func fetchFrom(t *testing.T, logs map[string]source, asked map[string]url.Values) func(string, url.Values) ([]item, uint64, error) {
	var mu sync.Mutex
	return func(src string, vals url.Values) ([]item, uint64, error) {
		mu.Lock()
		asked[src] = vals
		mu.Unlock()
		log, ok := logs[src]
		if !ok {
			t.Errorf("fetch called for unexpected source %q", src)
		}
		if log.err != nil {
			return nil, 0, log.err
		}
		var after uint64
		var limit int
		fmt.Sscan(vals.Get("cursor"), &after)
		fmt.Sscan(vals.Get("limit"), &limit)
		var page []item
		next := after
		for _, it := range log.items {
			if it.seq <= after {
				continue
			}
			if len(page) == limit {
				break
			}
			page = append(page, it)
			next = it.seq
		}
		return page, next, nil
	}
}

func TestMergePages(t *testing.T) {
	up := func(names ...string) []BackendStatus {
		var out []BackendStatus
		for _, n := range names {
			out = append(out, BackendStatus{Name: n, Healthy: true})
		}
		return out
	}
	// router: seqs 1..3 at t=1,4,7; b0: 1..3 at t=2,5,8; b1: 1..2 at t=3,6.
	logs := map[string]source{
		routerNode: {items: []item{{routerNode, 1, 1}, {routerNode, 2, 4}, {routerNode, 3, 7}}},
		"b0":       {items: []item{{"b0", 1, 2}, {"b0", 2, 5}, {"b0", 3, 8}}},
		"b1":       {items: []item{{"b1", 1, 3}, {"b1", 2, 6}}},
	}
	cases := []struct {
		name    string
		cursor  string
		limit   int
		members []BackendStatus
		logs    map[string]source
		// want lists the merged page as "src/seq"; next is the composite
		// cursor handed back; errs the sources named unreadable.
		want []string
		next string
		errs map[string]string
		// asked spot-checks the per-source cursor a source was queried with.
		asked map[string]string
	}{
		{
			name:    "time-ordered merge, every page consumed whole adopts the source's next",
			limit:   10,
			members: up("b0", "b1"),
			logs:    logs,
			want:    []string{"router/1", "b0/1", "b1/1", "router/2", "b0/2", "b1/2", "router/3", "b0/3"},
			next:    "b0:3,b1:2,router:3",
			asked:   map[string]string{"router": "0", "b0": "0", "b1": "0"},
		},
		{
			name:    "a source cut by the limit resumes at its last included seq",
			limit:   4,
			members: up("b0", "b1"),
			logs:    logs,
			// Each source returned a full page of up to 4; the merge kept
			// 2 of the router's, 1 of b0's, 1 of b1's.
			want: []string{"router/1", "b0/1", "b1/1", "router/2"},
			next: "b0:1,b1:1,router:2",
		},
		{
			name:    "the composite cursor resumes each source where the page ended",
			cursor:  "b0:1,b1:1,router:2",
			limit:   4,
			members: up("b0", "b1"),
			logs:    logs,
			want:    []string{"b0/2", "b1/2", "router/3", "b0/3"},
			next:    "b0:3,b1:2,router:3",
			asked:   map[string]string{"router": "2", "b0": "1", "b1": "1"},
		},
		{
			name:    "a bare-integer cursor applies to every source",
			cursor:  "2",
			limit:   10,
			members: up("b0", "b1"),
			logs:    logs,
			want:    []string{"router/3", "b0/3"},
			next:    "b0:3,b1:2,router:3",
			asked:   map[string]string{"router": "2", "b0": "2", "b1": "2"},
		},
		{
			name:    "a source with nothing new keeps its cursor",
			cursor:  "b0:3,b1:2,router:3",
			limit:   10,
			members: up("b0", "b1"),
			logs:    logs,
			want:    []string{},
			next:    "b0:3,b1:2,router:3",
		},
		{
			name:    "a member marked down is named, not queried; a failing one is named too",
			limit:   10,
			members: []BackendStatus{{Name: "b0", Healthy: true}, {Name: "b1", Healthy: false}, {Name: "b2", Healthy: true}},
			logs: map[string]source{
				routerNode: logs[routerNode],
				"b0":       logs["b0"],
				"b2":       {err: errors.New("status 500")},
			},
			want: []string{"router/1", "b0/1", "router/2", "b0/2", "router/3", "b0/3"},
			next: "b0:3,router:3",
			errs: map[string]string{"b1": "backend down", "b2": "status 500"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cursor, err := parseMergedCursor(c.cursor)
			if err != nil {
				t.Fatal(err)
			}
			asked := map[string]url.Values{}
			client := url.Values{"graph": {"g1"}, "trace": {"t-7"}, "limit": {"999"}}
			page := mergePages(client, cursor, c.limit, c.members, fetchFrom(t, c.logs, asked), itemKey)

			got := []string{}
			for _, it := range page.items {
				got = append(got, fmt.Sprintf("%s/%d", it.src, it.seq))
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("merged page = %v, want %v", got, c.want)
			}
			if page.items == nil {
				t.Error("items is nil; an empty page must encode as [] not null")
			}
			if page.cursor != c.next {
				t.Errorf("next cursor = %q, want %q", page.cursor, c.next)
			}
			if len(page.errs) != len(c.errs) {
				t.Errorf("errs = %v, want %v", page.errs, c.errs)
			}
			for src, want := range c.errs {
				if page.errs[src] != want {
					t.Errorf("errs[%s] = %q, want %q", src, page.errs[src], want)
				}
			}
			for src, want := range c.asked {
				if got := asked[src].Get("cursor"); got != want {
					t.Errorf("%s queried with cursor %q, want %q", src, got, want)
				}
			}
			// Every source sees the client's own filters verbatim, with
			// only the cursor and the limit replaced by its own.
			for src, vals := range asked {
				if vals.Get("graph") != "g1" || vals.Get("trace") != "t-7" || vals.Get("limit") != fmt.Sprint(c.limit) {
					t.Errorf("%s queried with %v: filters must pass through, limit must be the page's", src, vals)
				}
			}
			if client.Get("limit") != "999" || client.Has("cursor") {
				t.Errorf("client values mutated: %v", client)
			}
		})
	}
}

func TestMergePagesAdoptsReportedNext(t *testing.T) {
	// A shard whose log examined (and filtered out) entries past the last
	// one it returned reports that in next; a consumed page adopts it so
	// the filtered span is never re-examined.
	fetch := func(src string, vals url.Values) ([]item, uint64, error) {
		if src == "b0" {
			return []item{{"b0", 4, 1}}, 9, nil
		}
		return nil, 0, nil
	}
	page := mergePages(url.Values{}, mergedCursor{}, 10, []BackendStatus{{Name: "b0", Healthy: true}}, fetch, itemKey)
	if page.cursor != "b0:9,router:0" {
		t.Fatalf("next cursor = %q, want b0 at its reported next 9", page.cursor)
	}
	// Cut by the limit instead, the same shard resumes at what was returned.
	fetch2 := func(src string, vals url.Values) ([]item, uint64, error) {
		if src == "b0" {
			return []item{{"b0", 4, 1}, {"b0", 6, 2}}, 9, nil
		}
		return nil, 0, nil
	}
	page = mergePages(url.Values{}, mergedCursor{}, 1, []BackendStatus{{Name: "b0", Healthy: true}}, fetch2, itemKey)
	if page.cursor != "b0:4,router:0" || len(page.items) != 1 {
		t.Fatalf("cut page: cursor %q with %d items, want b0:4 with 1", page.cursor, len(page.items))
	}
}

func TestParseMergedCursor(t *testing.T) {
	for _, bad := range []string{"b0", "b0:x", "b0:1,,b1:2", ":", "b0:-1"} {
		if _, err := parseMergedCursor(bad); err == nil {
			t.Errorf("parseMergedCursor(%q) accepted", bad)
		}
	}
	c, err := parseMergedCursor("router:4,b0:12")
	if err != nil || c.of("router") != 4 || c.of("b0") != 12 || c.of("b1") != 0 {
		t.Errorf("composite cursor = %+v, %v", c, err)
	}
}
