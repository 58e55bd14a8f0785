#!/usr/bin/env bash
# apidocs_check.sh — keep docs/API.md honest.
#
# Extracts every route registered in the service mux
# (internal/service/http.go) and the cluster router mux
# (internal/cluster/router.go) and checks it appears in docs/API.md;
# then checks the reverse — every "### `METHOD /path`" heading in the
# docs still corresponds to a registered route. The daemon flags get
# the same two-way check: every flag.*("name" defined in
# cmd/welmaxd/main.go needs a row in the "## Daemon flags" table, and
# every row there must name a defined flag. Either direction failing
# means the docs drifted from the code; CI runs this so the drift
# cannot land silently. Membership tests read their list from a
# here-string, never a pipe: under pipefail, grep -q exiting at its
# first match can SIGPIPE a still-writing printf, and the pipeline's
# status 141 would read as "missing".
set -euo pipefail
cd "$(dirname "$0")/.."

DOC=docs/API.md
SOURCES=(internal/service/http.go internal/cluster/router.go)
DAEMON=cmd/welmaxd/main.go

for f in "$DOC" "${SOURCES[@]}" "$DAEMON"; do
  [ -f "$f" ] || { echo "apidocs_check: missing $f" >&2; exit 1; }
done

# Route patterns look like: mux.HandleFunc("GET /v1/graphs/{id}", ...)
code_routes=$(grep -hoE 'HandleFunc\("[A-Z]+ [^"]+"' "${SOURCES[@]}" \
  | sed -E 's/HandleFunc\("([^"]+)"/\1/' | sort -u)

# Documented routes are level-3 headings: ### `GET /v1/graphs/{id}`
doc_routes=$(grep -oE '^### `[A-Z]+ [^`]+`' "$DOC" \
  | sed -E 's/^### `([^`]+)`/\1/' | sort -u)

fail=0
while IFS= read -r route; do
  [ -z "$route" ] && continue
  if ! grep -qxF -- "$route" <<<"$doc_routes"; then
    echo "apidocs_check: $DOC is missing a heading for registered route: $route" >&2
    fail=1
  fi
done <<<"$code_routes"

while IFS= read -r route; do
  [ -z "$route" ] && continue
  if ! grep -qxF -- "$route" <<<"$code_routes"; then
    echo "apidocs_check: $DOC documents a route no mux registers: $route" >&2
    fail=1
  fi
done <<<"$doc_routes"

# Flags look like: flag.Duration("probe-interval", ...)
code_flags=$(grep -hoE 'flag\.(String|Int|Bool|Duration|Float64)\("[^"]+"' "$DAEMON" \
  | sed -E 's/.*\("([^"]+)"/-\1/' | sort -u)

# Documented flags are the first cells of the "## Daemon flags" table:
# | `-probe-interval` | `2s` | ... |
doc_flags=$(awk '/^## /{in_flags = ($0 == "## Daemon flags")} in_flags' "$DOC" \
  | grep -oE '^\| `-[a-z0-9-]+` \|' | sed -E 's/^\| `([^`]+)` \|/\1/' | sort -u)

while IFS= read -r f; do
  [ -z "$f" ] && continue
  if ! grep -qxF -- "$f" <<<"$doc_flags"; then
    echo "apidocs_check: $DOC has no Daemon flags row for defined flag: $f" >&2
    fail=1
  fi
done <<<"$code_flags"

while IFS= read -r f; do
  [ -z "$f" ] && continue
  if ! grep -qxF -- "$f" <<<"$code_flags"; then
    echo "apidocs_check: $DOC documents a flag $DAEMON does not define: $f" >&2
    fail=1
  fi
done <<<"$doc_flags"

if [ "$fail" -ne 0 ]; then
  echo "apidocs_check: FAILED — update docs/API.md to match the muxes and $DAEMON" >&2
  exit 1
fi
echo "apidocs_check: ok ($(printf '%s\n' "$code_routes" | grep -c .) routes, $(printf '%s\n' "$code_flags" | grep -c .) flags documented)"
