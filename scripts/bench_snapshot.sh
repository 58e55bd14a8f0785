#!/usr/bin/env bash
# bench_snapshot.sh — one point on the perf trajectory, and the perf
# regression gate.
#
# Runs the service-layer allocate benchmarks and writes BENCH_allocate.json
# with a stable schema (benchmark name -> ns/op, sketchbuilds/op and
# rrsets/op, plus the commit, date, and the sketch-growth parallelism in
# effect), so successive CI runs are directly comparable. Then three
# guards:
#
#   1. Telemetry cost: the warm allocate path with tracing and
#      histograms on must cost at most 25 µs per request more than the
#      same path with -telemetry off. Each benchmark runs COUNT times
#      and the minimum ns/op is compared — min-of-N is the standard way
#      to strip scheduler noise from a threshold check. The bound is
#      absolute because the cost is: a fixed few µs of span and
#      histogram work per request, whatever the request itself costs —
#      as a share of a warm path that is now a prefix read it is > 100 %.
#   2. Warm ÷ cold, from the same snapshot: a warm allocation must cost
#      at most 1/100 of the cold one. A warm request that re-runs the
#      greedy selection (or anything else proportional to the sketch)
#      sits near 1/70; the memoised path is beyond 1/1000. Both sides come
#      from this run on this machine, so the check needs no baseline.
#   3. Work counts against the committed baseline snapshot: no
#      benchmark's sketchbuilds/op may grow — a build-count increase
#      means a caching or batching seam silently broke, which wall time
#      alone can hide. The one exception is the batched burst, whose
#      operation count is not its cost (it is a build plus a delta-build
#      by design): that row is gated on rrsets/op — the RR sets the burst
#      sampled — not growing more than 10% (which request leads the burst
#      is a scheduling accident, and the split between build and delta
#      moves with it). Counts, unlike ns/op, compare across machines.
#
# Env knobs: BENCH_TIME (default 50x), BENCH_COUNT (default 3),
# OUT (default BENCH_allocate.json), BASELINE (default: the committed
# OUT read before overwriting), BENCH_GATE=off to skip the baseline
# comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_TIME="${BENCH_TIME:-50x}"
BENCH_COUNT="${BENCH_COUNT:-3}"
OUT="${OUT:-BENCH_allocate.json}"
BASELINE="${BASELINE:-$OUT}"
BENCH_GATE="${BENCH_GATE:-on}"

# The service defaults RR-set growth parallelism inside each sketch
# build to GOMAXPROCS (-sketch-workers 0); record the effective value so
# snapshots from differently-sized machines stay interpretable.
SKETCH_WORKERS="${SKETCH_WORKERS:-$(nproc 2>/dev/null || echo 1)}"

raw="$(mktemp)"
baseline_copy="$(mktemp)"
trap 'rm -f "$raw" "$baseline_copy"' EXIT

# Snapshot the committed baseline before OUT is overwritten.
have_baseline=0
if [ "$BENCH_GATE" = "on" ] && [ -f "$BASELINE" ]; then
    cp "$BASELINE" "$baseline_copy"
    have_baseline=1
fi

go test -run '^$' -bench 'BenchmarkServiceAllocate|BenchmarkBatchedAllocate' \
    -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" . | tee "$raw"

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Reduce the -count repetitions to min ns/op (and min sketchbuilds/op —
# it is deterministic per benchmark, so min == the value — and min
# rrsets/op) per name, then emit the stable JSON shape.
awk -v commit="$commit" -v date="$date" -v workers="$SKETCH_WORKERS" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns = ""; builds = ""; rr = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "sketchbuilds/op") builds = $(i-1)
        if ($i == "rrsets/op") rr = $(i-1)
    }
    if (ns == "") next
    if (!(name in minNS) || ns + 0 < minNS[name] + 0) minNS[name] = ns
    if (builds != "" && (!(name in minB) || builds + 0 < minB[name] + 0)) minB[name] = builds
    if (rr != "" && (!(name in minR) || rr + 0 < minR[name] + 0)) minR[name] = rr
    if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
    printf "{\n  \"schema\": 3,\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"sketch_workers\": %d,\n  \"benchmarks\": [\n", commit, date, workers
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, minNS[name]
        if (name in minB) printf ", \"sketchbuilds_per_op\": %s", minB[name]
        if (name in minR) printf ", \"rrsets_per_op\": %s", minR[name]
        printf "}%s\n", (i < n - 1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$raw" > "$OUT"
echo "wrote $OUT:"
cat "$OUT"

# extract <file> <benchmark-name> <field> -> value (empty when absent)
extract() {
    awk -F'"' -v want="$2" -v field="$3" '
        $2 == "name" && $4 == want {
            if (match($0, "\"" field "\": [0-9.]+")) {
                v = substr($0, RSTART, RLENGTH)
                sub(/.*: /, "", v)
                print v
            }
        }' "$1"
}

# --- telemetry cost guard -----------------------------------------------
on="$(extract "$OUT" "BenchmarkServiceAllocate/warm" ns_per_op)"
off="$(extract "$OUT" "BenchmarkServiceAllocate/warm-notelemetry" ns_per_op)"
cold="$(extract "$OUT" "BenchmarkServiceAllocate/cold" ns_per_op)"
if [ -z "$on" ] || [ -z "$off" ] || [ -z "$cold" ]; then
    echo "bench_snapshot: cold/warm/warm-notelemetry results missing, cannot check the warm path" >&2
    exit 1
fi
awk -v on="$on" -v off="$off" 'BEGIN {
    printf "telemetry warm-path cost: %.0f ns/request (on %.0f ns/op, off %.0f ns/op, limit 25000)\n", on - off, on, off
    if (on - off > 25000) {
        print "FAIL: telemetry costs more than 25 µs per request on the warm allocate path" > "/dev/stderr"
        exit 1
    }
}'

# --- a warm request is a prefix read, not a selection --------------------
awk -v warm="$on" -v cold="$cold" 'BEGIN {
    printf "warm / cold: 1/%.0f (warm %.0f ns/op, cold %.0f ns/op, limit 1/100)\n", cold / warm, warm, cold
    if (warm * 100 > cold) {
        print "FAIL: a warm allocation costs more than 1/100 of a cold one" > "/dev/stderr"
        exit 1
    }
}'

# --- work counts vs the committed baseline ------------------------------
batched="BenchmarkBatchedAllocate/batched"
if [ "$have_baseline" != 1 ]; then
    echo "bench_snapshot: no baseline snapshot (BENCH_GATE=$BENCH_GATE), skipping the work-count gate"
    exit 0
fi

fail=0

# sketchbuilds/op must not grow for any benchmark present in both
# snapshots, bar the batched burst.
for name in $(awk -F'"' '$2 == "name" {print $4}' "$baseline_copy"); do
    [ "$name" != "$batched" ] || continue
    base_b="$(extract "$baseline_copy" "$name" sketchbuilds_per_op)"
    now_b="$(extract "$OUT" "$name" sketchbuilds_per_op)"
    [ -n "$base_b" ] && [ -n "$now_b" ] || continue
    if ! awk -v now="$now_b" -v base="$base_b" 'BEGIN { exit (now > base) ? 1 : 0 }'; then
        echo "FAIL: $name sketchbuilds/op grew: $base_b -> $now_b" >&2
        fail=1
    else
        echo "$name sketchbuilds/op: $base_b -> $now_b (ok)"
    fi
done

base_r="$(extract "$baseline_copy" "$batched" rrsets_per_op)"
now_r="$(extract "$OUT" "$batched" rrsets_per_op)"
if [ -n "$base_r" ] && [ -n "$now_r" ]; then
    if ! awk -v now="$now_r" -v base="$base_r" 'BEGIN { exit (now > 1.1 * base) ? 1 : 0 }'; then
        echo "FAIL: $batched rrsets/op grew more than 10%: $base_r -> $now_r" >&2
        fail=1
    else
        echo "$batched rrsets/op: $base_r -> $now_r (ok)"
    fi
fi

exit "$fail"
