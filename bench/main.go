// Command bench is the repository's end-to-end benchmark: it builds
// ./cmd/welmaxd from the checkout, spawns the real daemon(s) on
// loopback for each of five workloads, drives a closed loop over HTTP
// from this single process, checks every output, and prints each metric
// as "workload/metric value unit". The last line of standard output is
// one JSON object {correct, attempted, failed, metrics} for the driver
// described in BENCHMARK.json. README.md beside this file documents the
// workloads, the metrics and how they interact.
//
//	go -C bench run .                                  # all five workloads
//	go -C bench run . --workload cold_build --seed 7   # one workload, another seed
//	go -C bench run . --workload warm_hit --trace 1    # per-layer numbers + span file
//	go -C bench run . --aa 3                           # same-code A/A evidence
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadF = flag.String("workload", "", "run only this workload (default: all five)")
		seed      = flag.Uint64("seed", 1, "graph seeds, request seeds and eps jitter all derive from it")
		seconds   = flag.Int("seconds", 20, "measured seconds per workload, after the discarded warm-up")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.jsonl instead of the end-to-end metrics")
		aa        = flag.Int("aa", 0, "run the suite as two interleaved sets of N on the same build and compare medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds < 1 || *seed == 0 {
		fatal(fmt.Errorf("--seconds and --seed must be at least 1"))
	}
	selected := workloads
	if *workloadF != "" {
		w := workloadByName(*workloadF)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadF))
		}
		selected = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		fatal(err)
	}
	r := &runner{bin: bin, root: root, seed: *seed, measure: time.Duration(*seconds) * time.Second, graphs: graphCache{}}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	printEnvironment(root)

	if *aa > 0 {
		if err := r.runAA(ctx, spec, selected, *aa); err != nil {
			fatal(err)
		}
		return
	}

	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		var m *measured
		if *trace == 1 {
			m, err = r.traced(ctx, w)
		} else {
			m, err = r.endToEnd(ctx, w)
		}
		if err != nil {
			fatal(err)
		}
		listed := spec.EndToEnd
		if *trace == 1 {
			listed = spec.PerLayer
		}
		if err := checkAgainst(listed, m.metrics); err != nil {
			m.problems = append(m.problems, err)
		}
		m.print(os.Stdout)
		out.merge(m, len(selected) > 1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// merge folds one workload's numbers in; with several workloads in one
// invocation the metric names carry the workload as a prefix.
func (r *result) merge(m *measured, prefix bool) {
	r.Correct = r.Correct && m.correct()
	r.Attempted += m.attempted
	r.Failed += m.failed
	for name, v := range m.metrics {
		if prefix {
			name = m.w.name + "/" + name
		}
		r.Metrics[name] = v
	}
}

// print writes the human-readable block of one workload run.
func (m *measured) print(f *os.File) {
	fmt.Fprintf(f, "# %s: sent %d, succeeded %d, failed %d, samples %d (p90 has %d beyond it)\n",
		m.w.name, m.attempted, m.attempted-m.failed, m.failed, m.samples, samplesBeyond(m.samples, 90))
	for _, note := range m.context {
		fmt.Fprintf(f, "# %s\n", note)
	}
	for _, name := range m.order {
		v := m.metrics[name]
		fmt.Fprintf(f, "%s/%s %.6g %s\n", m.w.name, name, v.Value, v.Unit)
	}
	share := 0.0
	if m.attempted > 0 {
		share = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(f, "%s/failed_share %.6g ratio\n", m.w.name, share)
	for _, note := range m.findings {
		fmt.Fprintf(f, "# finding: %s\n", note)
	}
	for _, p := range m.problems {
		fmt.Fprintf(f, "# FAILED: %v\n", p)
	}
}

// printEnvironment records what the numbers were taken on, beside them.
func printEnvironment(root string) {
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	fmt.Printf("# commit %s\n# nproc %d  GOMAXPROCS %d  %s  cpu %q\n", commit, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
	fmt.Println("# loopback network; disk tier files are page-cache-warm (disk_reload measures decode, not the device); sized for 2 cores")
}
