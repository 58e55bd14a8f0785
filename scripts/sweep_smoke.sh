#!/usr/bin/env bash
# Sweep smoke test: boots a router in front of two welmaxd backends and
# drives the mini evaluation grid through POST /v1/sweeps via
# `experiments -remote`, then checks the sweep's cells all finished,
# landed on both shards' HRW owners (node job-id prefixes), and that the
# results route serves the grouped welfare table from a persisted
# artifact. The in-process equivalents live in
# internal/cluster/sweeps_test.go and internal/service/sweeps_test.go.
set -euo pipefail

ROUTER="127.0.0.1:18095"
B0="127.0.0.1:18096"
B1="127.0.0.1:18097"
BASE="http://$ROUTER"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "sweep_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() { # $1 = base url
  for _ in $(seq 1 100); do
    if curl -fsS "$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "daemon at $1 did not become healthy"
}

go build -o "$WORK/welmaxd" ./cmd/welmaxd
go build -o "$WORK/experiments" ./cmd/experiments

"$WORK/welmaxd" -addr "$B0" -node b0 & PIDS+=($!)
"$WORK/welmaxd" -addr "$B1" -node b1 & PIDS+=($!)
wait_healthy "http://$B0"
wait_healthy "http://$B1"

"$WORK/welmaxd" -addr "$ROUTER" -route "b0=http://$B0,b1=http://$B1" \
  -probe-interval 300ms -data-dir "$WORK/spill" & PIDS+=($!)
wait_healthy "$BASE"

for _ in $(seq 1 100); do
  ALIVE="$(curl -fsS "$BASE/healthz" | jq -r .alive)"
  [ "$ALIVE" = 2 ] && break
  sleep 0.1
done
[ "$ALIVE" = 2 ] || fail "router sees $ALIVE/2 backends alive"

# The remote client registers both mini-grid networks, posts the sweep,
# tails its SSE stream, and fails non-zero if any cell failed.
"$WORK/experiments" -remote "$BASE" -scale 0.05 -runs 200 \
  | tee "$WORK/experiments.out" || fail "experiments -remote"

# The sweep the client ran is the router's latest sweep job; the
# listing is newest-first.
SWEEP="$(curl -fsS "$BASE/v1/sweeps" | jq -r '.sweeps[0]')"
SWEEP_ID="$(jq -r .id <<<"$SWEEP")"
STATE="$(jq -r .state <<<"$SWEEP")"
[ "$STATE" = done ] || fail "sweep $SWEEP_ID ended $STATE"
CELLS="$(jq -r .result.cells <<<"$SWEEP")"
DONE="$(jq -r .result.done <<<"$SWEEP")"
[ "$CELLS" = 16 ] && [ "$DONE" = 16 ] || fail "sweep $SWEEP_ID: $DONE/$CELLS cells done"

RESULTS="$(curl -fsS "$BASE/v1/sweeps/$SWEEP_ID/results?group_by=graph,config,algo")"
ART="$(jq -r .artifact_id <<<"$RESULTS")"
case "$ART" in s*) ;; *) fail "artifact id $ART" ;; esac
[ "$(jq -r .result.artifact_id <<<"$SWEEP")" = "$ART" ] || fail "listing and results disagree on the artifact id"
[ -f "$WORK/spill/catalog/sweeps/$ART.wsr" ] || fail "artifact $ART not persisted under the spill dir"

# Cells must have executed on their graphs' HRW owners: with two graphs
# spread across two backends (the mini grid picks flixster and
# douban-book, which hash to distinct owners), both node prefixes appear.
for node in b0 b1; do
  N="$(jq -r --arg n "$node" '[.cells[] | select(.job_id | startswith($n + "-"))] | length' <<<"$RESULTS")"
  [ "$N" -ge 1 ] || fail "no cells ran on $node"
done

NGROUPS="$(jq -r '.groups | length' <<<"$RESULTS")"
[ "$NGROUPS" -ge 4 ] || fail "grouped results have $NGROUPS groups, want >= 4"
WELFARE_OK="$(jq -r '[.cells[] | select(.has_welfare and .welfare_mean > 0)] | length' <<<"$RESULTS")"
[ "$WELFARE_OK" = 16 ] || fail "only $WELFARE_OK/16 cells carry a positive welfare estimate"

echo "sweep_smoke: OK (sweep $SWEEP_ID, artifact $ART, $NGROUPS groups)"
