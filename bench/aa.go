package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json at the checkout root. The bounds live
// there and nowhere else; the A/A comparison reads them, the traced run
// checks it printed exactly the per-layer metrics listed, and the tests
// check the rest against the code.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// checkAgainst reports how a run's metric set differs from the listed
// one: a metric the spec promises and the run did not print, or the
// reverse, or a unit that changed.
func checkAgainst(listed []specMetric, got map[string]metric) error {
	var diffs []string
	seen := map[string]bool{}
	for _, l := range listed {
		seen[l.Name] = true
		if v, ok := got[l.Name]; !ok {
			diffs = append(diffs, "missing "+l.Name)
		} else if v.Unit != l.Unit {
			diffs = append(diffs, fmt.Sprintf("%s is in %s, listed as %s", l.Name, v.Unit, l.Unit))
		}
	}
	for name := range got {
		if !seen[name] {
			diffs = append(diffs, "unlisted "+name)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(diffs, "; "))
	}
	return nil
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runAA runs the selected workloads as two interleaved sets of n runs
// on the same build (A, B, A, B, …, so drift in the machine lands on
// both). Round i of both sets uses seed+i, so with n = 10 this is the
// acceptance check the driver makes: per workload and metric it prints
// both medians, the gap between them as a share of the better one's
// median in the metric's worse direction, each set's spread (the
// distance between its quartiles as a share of its median, from four
// runs up), and the bound. A gap or a spread over its bound is an
// error: the benchmark could not tell a change that size from noise.
func (r *runner) runAA(ctx context.Context, spec *benchSpec, ws []*workload, n int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		round := *r
		round.seed = r.seed + uint64(i)
		for set := range sets {
			for _, w := range ws {
				m, err := round.endToEnd(ctx, w)
				if err != nil {
					return err
				}
				if !m.correct() {
					m.print(os.Stdout)
					return fmt.Errorf("%s failed its checks in A/A round %d", w.name, i+1)
				}
				for name, v := range m.metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Printf("# round %d (seed %d) set %c %s: %s\n", i+1, round.seed, 'A'+set, w.name, m.context[0])
			}
		}
	}
	fmt.Printf("# A/A: two interleaved sets of %d runs, seeds %d..%d, %v measured per run\n", n, r.seed, r.seed+uint64(n)-1, r.measure)
	fmt.Printf("%-13s %-15s %11s %11s %7s %9s %9s %6s\n", "workload", "metric", "median_A", "median_B", "gap", "spread_A", "spread_B", "bound")
	over := 0
	for _, w := range ws {
		for _, e := range spec.EndToEnd {
			xa, xb := sets[0][key{w.name, e.Name}], sets[1][key{w.name, e.Name}]
			a, b := median(xa), median(xb)
			gap := max(relativeWorsening(a, b, e.Better), relativeWorsening(b, a, e.Better))
			bad := gap > e.Bound
			spreads := [2]string{"-", "-"}
			if n >= 4 {
				for i, xs := range [][]float64{xa, xb} {
					sp := iqrShare(xs)
					spreads[i] = fmt.Sprintf("%.2f%%", sp*100)
					// setup_s is held to its median only: its spread is
					// sub-second process start-up jitter.
					bad = bad || (sp > e.Bound && e.Name != "setup_s")
				}
			}
			flag := ""
			if bad {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-13s %-15s %11.5g %11.5g %6.2f%% %9s %9s %5.0f%%%s\n", w.name, e.Name, a, b, gap*100, spreads[0], spreads[1], e.Bound*100, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload/metric pairs differ between two sets of the same code, or spread within one, by more than their bound", over)
	}
	return nil
}
