#!/usr/bin/env bash
# Generated-header lint for the checked-in bench queries.
#
# dbtc output must hold three invariants that keep the compiled backends
# honest (run in the perf-smoke CI job, after the build):
#
#   1. no std::unordered_map — every aggregate store is a dbt::FlatMap (or a
#      dbt::Sharded wrapper); falling back to the node-based container is a
#      silent 2-3x regression on the map-ops microbenchmarks.
#   2. no raw `new` — generated programs own no heap allocations directly;
#      everything lives in value-semantic stores.
#   3. one trigger body per relation — every relation dispatched in
#      on_batch()/on_event() has its trigger body (vec_REL), its per-event
#      entry point (on_REL) and its batch handler (on_batch_REL). on_REL
#      only forwards its row to vec_REL: its body holds no upd_ call, no
#      pendings and no map access. No header mentions an emission budget
#      (a size cap that silently drops a trigger body).
#   4. selection loops are kernel-only — the selection prologue of a vec_
#      handler may call dbt::Sel* kernels but must never compare strings
#      per row (== "...", dbt::Like, strcmp); string guards go through the
#      SelStrEq/SelStrNe kernels.
#   5. vectorized statement phases iterate selection vectors — a vec_
#      handler body must never materialize g.row() or rescan the raw group
#      0..n; every row loop walks a sel*/srt* index vector.
#   6. durability surface — every generated program overrides save_state()/
#      load_state() (and publishes relation_schemas() for the ingest
#      validator), so compiled programs participate in checkpoint/restore
#      like the interpreted engines.
#   7. serving surface — every generated program overrides
#      publish_snapshot(), the one-pass rendering hook the concurrent
#      snapshot-serving tier uses to publish epoch-stamped views.
#   8. one typed batch path — no header reads a batch group through the
#      g.row() shim or consults a process-wide selection toggle; the ingest
#      boundary coerces every lane onto the schema, so on_batch_<R> scans
#      typed lanes only, and selection always runs.
#
# Usage: tools/lint_gen.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
GEN_DIR="$BUILD_DIR/generated/bench/gen"

QUERIES="vwap sobi_bids mm best_bid q41 revenue q3s q6s q12s q13s"
QUERIES="$QUERIES selzero selhalf selall"

fail=0
checked=0
for q in $QUERIES; do
  hpp="$GEN_DIR/$q.hpp"
  if [ ! -f "$hpp" ]; then
    echo "lint_gen: FAIL — missing generated header $hpp" >&2
    echo "lint_gen: build the codegen targets first (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  checked=$((checked + 1))

  if grep -n 'std::unordered_map' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp uses std::unordered_map (expected dbt::FlatMap)" >&2
    fail=1
  fi

  # Raw `new` expressions; word-boundary keeps 'newest'/placement-free code
  # in comments from tripping it.
  if grep -nE '(^|[^[:alnum:]_])new[[:space:]]+[[:alnum:]_:<]' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp contains a raw new-expression" >&2
    fail=1
  fi

  # Selection prologues (between the two region markers inside each vec_
  # handler) must route every guard through a dbt::Sel* kernel; a per-row
  # string comparison there defeats the vectorized rewrite.
  prologue=$(awk '/--- selection prologue/,/--- statement phases/' "$hpp")
  if [ -n "$prologue" ] && \
     echo "$prologue" | grep -nE '== *"|!= *"|dbt::Like|strcmp' >&2; then
    echo "lint_gen: FAIL — $q.hpp has a per-row string comparison inside a selection loop" >&2
    fail=1
  fi

  # Vectorized statement phases iterate sel*/srt* index vectors; a g.row()
  # materialization or a raw 0..n rescan inside a vec_ handler means the
  # selection vector was computed and then ignored.
  vecbody=$(awk '/void vec_/,/^  }$/' "$hpp")
  if [ -n "$vecbody" ] && \
     echo "$vecbody" | grep -nE 'g\.row\(|for \(size_t i = 0; i < n;' >&2; then
    echo "lint_gen: FAIL — $q.hpp vec handler iterates the raw group instead of a selection vector" >&2
    fail=1
  fi

  # One typed batch path: no row-shim fallback, no selection toggle.
  if grep -nE 'g\.row\(|Selection[E]nabled' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp reads a group through g.row() or a selection toggle" >&2
    fail=1
  fi

  # Handlers for every dispatched relation.
  rels=$(grep -oE 'g\.relation == "[A-Za-z0-9_]+"' "$hpp" | \
         sed 's/.*"\(.*\)"/\1/' | sort -u)
  if [ -z "$rels" ]; then
    echo "lint_gen: FAIL — $q.hpp dispatches no relations" >&2
    fail=1
  fi
  for rel in $rels; do
    if ! grep -q "void vec_${rel}(" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp dispatches $rel but has no vec_${rel}() trigger body" >&2
      fail=1
    fi
    if ! grep -q "void on_${rel}(" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp dispatches $rel but has no on_${rel}() handler" >&2
      fail=1
    fi
    onbody=$(awk "/void on_${rel}\\(/,/^  }\$/" "$hpp" | tail -n +2)
    if echo "$onbody" | grep -nE 'upd_|pend|[[:alnum:]]_\.|_read\(|\.entries\(' >&2; then
      echo "lint_gen: FAIL — $q.hpp on_${rel}() does more than forward its row to vec_${rel}()" >&2
      fail=1
    fi
    if ! grep -q "on_batch_${rel}(" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp dispatches $rel but has no on_batch_${rel}() handler" >&2
      fail=1
    fi
  done

  # Durability surface: snapshot/restore overrides + published schemas.
  for member in "bool save_state(" "bool load_state(" "relation_schemas("; do
    if ! grep -qF "$member" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp is missing the ${member%%(*}() durability member" >&2
      fail=1
    fi
  done

  if grep -niE 'emission budget' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp mentions an emission budget (a dropped trigger body)" >&2
    fail=1
  fi

  # Serving surface: the snapshot-publish hook the concurrent view-serving
  # tier renders published epochs through.
  if ! grep -qF "publish_snapshot(" "$hpp"; then
    echo "lint_gen: FAIL — $q.hpp is missing the publish_snapshot() serving hook" >&2
    fail=1
  fi
done

if [ "$checked" -eq 0 ]; then
  echo "lint_gen: FAIL — no generated headers checked" >&2
  exit 1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint_gen: FAIL" >&2
  exit 1
fi
echo "lint_gen: OK — $checked generated headers clean"
