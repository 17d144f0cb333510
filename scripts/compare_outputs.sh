#!/usr/bin/env bash
# Byte-compares the outputs of two builds: every figure and ablation bench
# and every example, run once from each tree, plus the event trace that
# tests/pacon_determinism_check dumps. A refactor that must not change
# behaviour passes when nothing differs.
#
# Usage: scripts/compare_outputs.sh PARENT_BUILD CHANGE_BUILD
#   PARENT_BUILD  a CMake build tree of the commit before the change
#   CHANGE_BUILD  a CMake build tree of the change
#
# Each tree's programs run one after another, the two trees side by side
# (fig08_multi_app peaks near 1 GB per tree; the whole run takes minutes).
# Every run gets its own working directory, and each tree its own
# PACON_METRICS_DIR, so the run-report sidecars land apart. Compared: stdout,
# stderr and exit status of every program, every sidecar file, and the
# reference-seed kernel trace of pacon_determinism_check (PACON_TRACE_DUMP;
# its gtest log, which prints host time, is kept beside the outputs but not
# compared). Left out: micro_substrates, perf_kernel and mega_scalability,
# which print host time.
#
# Exit status: 0 when every output matches, 1 on any difference (the diff is
# printed and the run directory kept), 2 on bad usage or a missing program.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi

benches=(
  abl_async_commit abl_barrier_cost abl_batch_permission abl_bulk_insertion
  abl_eviction abl_failure_recovery abl_smallfile_threshold
  fig01_client_scalability fig02_path_traversal_motivation fig07_single_app
  fig08_multi_app fig09_path_traversal fig10_overhead fig11_scalability
  fig12_madbench table1_op_semantics
)
examples=(data_sharing madbench_app nn_checkpoint paconsim_cli quickstart)

programs=()
for b in "${benches[@]}"; do programs+=("bench/$b"); done
for e in "${examples[@]}"; do programs+=("examples/$e"); done

trees=()
for build in "$1" "$2"; do
  dir="$(cd "$build" 2>/dev/null && pwd)" || {
    echo "compare_outputs: no build tree at $build" >&2
    exit 2
  }
  for p in "${programs[@]}" tests/pacon_determinism_check; do
    if [[ ! -x "$dir/$p" ]]; then
      echo "compare_outputs: $dir/$p is missing; build the tree first" >&2
      exit 2
    fi
  done
  trees+=("$dir")
done

work="$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")"

# run_tree BUILD OUT: runs every program of BUILD, outputs under OUT.
run_tree() {
  local build="$1" out="$2" p name status
  mkdir -p "$out/reports"
  for p in "${programs[@]}"; do
    name="${p##*/}"
    mkdir -p "$out/cwd/$name"
    status=0
    (cd "$out/cwd/$name" && PACON_METRICS_DIR="$out/reports" "$build/$p" \
      >"$out/$name.stdout" 2>"$out/$name.stderr") || status=$?
    echo "$status" >"$out/$name.status"
  done
  status=0
  PACON_TRACE_DUMP="$out/determinism.trace" "$build/tests/pacon_determinism_check" \
    >"$out.determinism.log" 2>&1 || status=$?
  echo "$status" >"$out/pacon_determinism_check.status"
}

echo "compare_outputs: running ${#programs[@]} programs per tree in $work" >&2
run_tree "${trees[0]}" "$work/parent" &
parent_pid=$!
run_tree "${trees[1]}" "$work/change" &
change_pid=$!
wait "$parent_pid"
wait "$change_pid"

if diff -r "$work/parent" "$work/change"; then
  n_sidecars="$(find "$work/parent/reports" -type f | wc -l)"
  echo "compare_outputs: identical (${#programs[@]} programs, $n_sidecars sidecars," \
    "determinism trace)"
  rm -rf "$work"
  exit 0
fi
echo "compare_outputs: outputs differ; runs kept in $work" >&2
exit 1
