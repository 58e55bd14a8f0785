// Command welmaxd serves welfare-maximization queries over HTTP. It
// keeps social networks resident in memory, runs allocation and welfare
// estimation as asynchronous jobs on a bounded worker pool, and caches
// RR sketches so repeated and concurrent queries against the same
// network skip regeneration — the serving counterpart of the one-shot
// welmax CLI. With -data-dir it also persists graphs (content-addressed,
// so ids are stable) and spills built sketches to disk, so a restarted
// daemon keeps its graph ids and answers its first repeated allocate
// from a warm path. Every sketch miss resolves through the batch
// scheduler: allocate requests that differ only in budgets and arrive
// while a sketch build of their group runs are coalesced — onto that
// build when it covers them, otherwise onto one follow-up that extends
// its sketch when it returns (-batch-window caps the hold and must be
// positive; batching cannot be turned off). Sketch builds grow RR sets
// on -sketch-workers goroutines (GOMAXPROCS by default) that claim
// chunks, each sampled from its own seeded stream, so a cold build's
// answer for a request seed is the same at every setting. A batched
// build whose group already holds a resident near-dominating sketch
// extends it — appending RR sets and re-running selection — instead of
// rebuilding (sketch_extends / rr_sets_appended in /v1/stats).
// -admission-mb adds cost-based admission control: requests whose
// predicted sketch cost exceeds the budget answer 429 with a retryable
// body instead of queueing
// (-admission-queue holds near-budget requests briefly before the 429).
// POST /v1/sweeps runs a whole experiment grid — graphs × utility
// configs × ε × budget vectors × planners — as one job: cells stream
// per-cell progress over SSE and results land as a checksummed .wsr
// artifact served with filters and group-by aggregation from
// GET /v1/sweeps/{id}/results. A sweep runs at most -workers cells at
// once on a single node; a router keeps two in flight per backend.
//
// Quick start:
//
//	welmaxd -addr :8080 -data-dir /var/lib/welmaxd &
//	curl -s localhost:8080/v1/algorithms
//	curl -s -X POST localhost:8080/v1/graphs -d '{"network":"flixster"}'
//	curl -s -X POST localhost:8080/v1/allocate \
//	    -d '{"graph_id":"<id from the previous call>","budgets":[50,50],"runs":10000}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -sN localhost:8080/v1/jobs/j1/events   # SSE progress stream
//	curl -s -X DELETE localhost:8080/v1/jobs/j1 # cancel a running job
//	curl -s -X POST localhost:8080/v1/graphs/<id>/warm -d '{"budgets":[50,50]}'
//	curl -s localhost:8080/v1/stats
//
// Cluster mode: welmaxd also runs as the routing tier in front of N
// backend daemons. Backends are ordinary welmaxd processes started with
// -node so their job ids carry a cluster-unique prefix; the router
// places each graph on one backend by rendezvous-hashing its
// content-addressed id, proxies graph- and job-scoped requests, fans
// multi-graph requests out, and re-routes graphs (shipping warm
// sketches) when a backend goes down or comes back:
//
//	welmaxd -addr :8081 -node b0 -data-dir /var/lib/welmaxd-b0 &
//	welmaxd -addr :8082 -node b1 -data-dir /var/lib/welmaxd-b1 &
//	welmaxd -addr :8080 -route 'b0=http://127.0.0.1:8081,b1=http://127.0.0.1:8082' &
//	curl -s -X POST localhost:8080/v1/graphs -d '{"network":"flixster"}'  # same API
//
// Backends accept raw graph and sketch imports — cluster-internal
// endpoints whose contents become authoritative for allocation results —
// so either keep backends on a private network or start every process
// with the same -cluster-token (or WELMAXD_CLUSTER_TOKEN): backends then
// reject import/sketch requests without the token, and the router
// attaches it to its own traffic (placement, rebalancing, sketch ships)
// while relaying — never substituting — the token on proxied client
// requests.
//
// Observability: every request carries an X-Welmax-Trace-Id (minted at
// the edge when the client sends none) that follows the job through
// logs, /v1/jobs records, and SSE events. Each traced request also
// records a span tree — parented, monotonic timestamps, per-span
// resource deltas — kept in a bounded in-memory ring (512 traces) with
// tail-sampled spill to checksummed segments under <data-dir>/traces
// (32 MB, oldest deleted first; -trace-sample sets the keep
// probability, and slow, errored, and admission-queued traces are
// always kept). Control-plane decisions land the same way in the
// flight recorder behind GET /v1/events (4096-event ring, 32 MB under
// <data-dir>/journal); both logs continue their sequence numbers — and
// so their cursors — across a restart. GET /v1/traces lists retained
// traces with route/graph/min_ms/since filters and cursor pagination,
// and GET /v1/traces/{id} returns one trace's spans; on the router both
// merge across shards, stitching the router's dispatch/proxy spans
// over the owning backend's execution spans (propagated via
// X-Welmax-Span-Id) into one cross-tier waterfall. GET /v1/metrics
// serves Prometheus-format latency histograms (merged across shards on
// the router); ?format=json adds per-bucket exemplars naming the
// slowest recent trace so a histogram spike resolves to a concrete
// waterfall. -pprof-addr exposes net/http/pprof on a separate
// listener; -slow-ms logs a structured line with per-stage timings for
// any job slower than the threshold; -telemetry=off disables all of
// it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"uicwelfare/internal/cluster"
	"uicwelfare/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 2, "allocation/estimation worker count (also the number of cells one sweep runs at once)")
		sketchWkrs = flag.Int("sketch-workers", 0, "RR-set growth parallelism inside each sketch build (0 = GOMAXPROCS); answers do not depend on it")
		queueCap   = flag.Int("queue", 64, "job queue capacity")
		cacheCap   = flag.Int("cache", 64, "sketch cache capacity (entries)")
		cacheMB    = flag.Int("cache-mb", 0, "sketch cache budget in MB of approximate resident cost (0 = entry bound only)")
		retention  = flag.Int("retain", 1024, "finished jobs kept queryable; the earliest-finished are evicted first")
		allowPaths = flag.Bool("allow-paths", false, "let POST /v1/graphs load server-side edge-list or .wmg files")
		preload    = flag.String("preload", "", "built-in network to load at startup (optional)")
		dataDir    = flag.String("data-dir", "", "persistence directory: graphs, spilled sketches, and the job audit trail survive restarts (optional)")
		diskMB     = flag.Int("disk-mb", 0, "spilled-sketch disk budget in MB (0 = unbounded; needs -data-dir)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "in-memory sketch lifetime (0 = forever); expired sketches rebuild on next use")
		batchWin   = flag.Duration("batch-window", service.DefaultBatchWindow, "budget coalescing: a sketch miss with no build of its group (same graph, eps, ell, cascade) in flight builds at once; misses arriving during that build share it or merge into one follow-up that extends its sketch when it returns, held at most this long (must be > 0)")
		admitMB    = flag.Int("admission-mb", 0, "cost-based admission control: reject allocate/warm requests (429, retryable) whose predicted sketch cost exceeds this many MB (0 disables)")
		admitQueue = flag.Int("admission-queue", 0, "queue-with-deadline admission: hold up to this many near-budget requests briefly instead of answering 429 (0 disables, needs -admission-mb)")
		admitWait  = flag.Duration("admission-wait", 2*time.Second, "how long a queued near-budget request waits for admission before the 429 (with -admission-queue)")
		admitSlack = flag.Float64("admission-slack", 1.5, "queue eligibility: only requests predicted within this factor of -admission-mb queue; further over rejects immediately")
		nodeID     = flag.String("node", "", "cluster node id: job ids become <node>-j<seq> and /v1/healthz reports it (required behind a router)")
		route      = flag.String("route", "", "run as a cluster router over these backends: 'b0=http://host:port,b1=...' (ignores backend-only flags except -data-dir and -cluster-token)")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "router health-probe cadence (with -route)")
		proxyTO    = flag.Duration("proxy-timeout", 30*time.Second, "router per-backend request deadline, SSE excepted (with -route)")
		token      = flag.String("cluster-token", "", "shared cluster secret: backends require it on import/sketch endpoints, the router attaches it (or set WELMAXD_CLUSTER_TOKEN)")
		telemetryF = flag.String("telemetry", "on", "request tracing and latency histograms: on or off")
		slowMS     = flag.Int("slow-ms", 1000, "log a structured slow-request line (with trace id and per-stage timings) for jobs at or above this many milliseconds (0 disables)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty disables)")
		traceSmpl  = flag.Float64("trace-sample", 0.05, "tail-sampling keep probability for fast successful traces; slow, errored, and admission-queued traces are always kept")
	)
	flag.Parse()

	if *telemetryF != "on" && *telemetryF != "off" {
		fmt.Fprintf(os.Stderr, "welmaxd: -telemetry must be on or off, got %q\n", *telemetryF)
		os.Exit(1)
	}
	if *batchWin <= 0 {
		fmt.Fprintf(os.Stderr, "welmaxd: -batch-window must be > 0, got %v: batching can no longer be disabled, every sketch miss resolves through the batch scheduler\n", *batchWin)
		os.Exit(1)
	}
	startPprof(*pprofAddr)

	clusterToken := *token
	if clusterToken == "" {
		clusterToken = os.Getenv("WELMAXD_CLUSTER_TOKEN")
	}

	if *route != "" {
		spillDir := ""
		if *dataDir != "" {
			spillDir = filepath.Join(*dataDir, "catalog")
		}
		backends, err := cluster.ParseBackends(*route)
		if err != nil {
			fmt.Fprintln(os.Stderr, "welmaxd:", err)
			os.Exit(1)
		}
		runRouter(*addr, cluster.Options{
			Backends:       backends,
			ProbeInterval:  *probeEvery,
			ProxyTimeout:   *proxyTO,
			AllowPathLoads: *allowPaths,
			SpillDir:       spillDir,
			ClusterToken:   clusterToken,
			TraceSample:    *traceSmpl,
		})
		return
	}

	svc, err := service.New(service.Options{
		Workers:        *workers,
		SketchWorkers:  *sketchWkrs,
		QueueCap:       *queueCap,
		CacheEntries:   *cacheCap,
		CacheMB:        *cacheMB,
		JobRetention:   *retention,
		AllowPathLoads: *allowPaths,
		DataDir:        *dataDir,
		DiskMB:         *diskMB,
		CacheTTL:       *cacheTTL,
		BatchWindow:    *batchWin,
		AdmissionMB:    *admitMB,
		AdmissionQueue: *admitQueue,
		AdmissionWait:  *admitWait,
		AdmissionSlack: *admitSlack,
		NodeID:         *nodeID,
		ClusterToken:   clusterToken,
		TelemetryOff:   *telemetryF == "off",
		SlowThreshold:  slowThreshold(*slowMS),
		TraceSample:    *traceSmpl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "welmaxd:", err)
		os.Exit(1)
	}
	defer svc.Close()

	if *dataDir != "" {
		log.Printf("data dir %s: %d graphs re-indexed", *dataDir, svc.Registry().Len())
	}

	if *preload != "" {
		name, g, err := service.LoadGraph(&service.GraphRequest{Network: *preload})
		if err != nil {
			fmt.Fprintln(os.Stderr, "welmaxd:", err)
			os.Exit(1)
		}
		entry, existed, err := svc.RegisterGraph(name, g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "welmaxd:", err)
			os.Exit(1)
		}
		verb := "preloaded"
		if existed {
			verb = "already resident:"
		}
		log.Printf("%s %s as %s (%d nodes, %d edges)",
			verb, name, entry.ID, g.N(), g.M())
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	if *nodeID != "" {
		log.Printf("welmaxd node %s listening on %s (%d workers)", *nodeID, *addr, *workers)
	} else {
		log.Printf("welmaxd listening on %s (%d workers)", *addr, *workers)
	}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "welmaxd:", err)
		os.Exit(1)
	}
	<-done
}

// slowThreshold maps the -slow-ms flag onto service.Options.SlowThreshold
// (where 0 means "default" and negative disables).
func slowThreshold(ms int) time.Duration {
	if ms <= 0 {
		return -1
	}
	return time.Duration(ms) * time.Millisecond
}

// startPprof serves net/http/pprof on its own listener (and mux — the
// profiling surface never shares the API mux, so it can be bound to
// localhost while the API is public). No-op when addr is empty.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		log.Printf("pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("pprof server: %v", err)
		}
	}()
}

// runRouter serves the cluster routing tier (-route).
func runRouter(addr string, opts cluster.Options) {
	rt, err := cluster.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "welmaxd:", err)
		os.Exit(1)
	}
	rt.Start()
	defer rt.Close()

	srv := &http.Server{Addr: addr, Handler: rt.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("router shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	log.Printf("welmaxd router listening on %s (%d backends)", addr, len(opts.Backends))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "welmaxd:", err)
		os.Exit(1)
	}
	<-done
}
