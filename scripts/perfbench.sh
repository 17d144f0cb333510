#!/usr/bin/env bash
# Tracked wall-clock perf run: bench/perf_kernel (engine micro-rates), a
# fixed-seed fig07_single_app end-to-end run, and the million-client
# mega_scalability scenario, recorded in BENCH_kernel.json.
#
# The JSON keeps a short history: on every run the previous "current" object
# is pushed onto "history", so the perf trajectory across PRs is visible from
# the file alone. The "baseline" object is written once (the pre-optimization
# numbers of the PR that introduced this harness) and never overwritten.
#
# Usage: scripts/perfbench.sh [--build-dir DIR] [--scale N] [--label TEXT]
#                             [--skip-fig07] [--skip-mega] [--mega-clients N]
#                             [--out FILE] [--metrics [DIR]] [--compare]
#                             [--threshold PCT]
#   --build-dir DIR  build tree to use (default: build-perf; configured
#                    Release + PACON_LTO=ON automatically if missing)
#   --scale N        perf_kernel iteration multiplier (default 1)
#   --label TEXT     free-form label stored with the results (e.g. a PR id)
#   --out FILE       output JSON (default: BENCH_kernel.json at the repo root)
#   --skip-fig07     skip the end-to-end fig07 wall-clock run
#   --skip-mega      skip the million-client mega_scalability run
#   --mega-clients N simulated clients for the mega run (default 1000000)
#   --metrics [DIR]  archive the fig07 run-report sidecar (fig07_metrics.json)
#                    into DIR (default: bench-metrics/ at the repo root)
#   --compare        regression gate: run the perf legs, compare against the
#                    "current" entry in BENCH_kernel.json and exit non-zero
#                    when kernel_events_per_sec or fig07_wall_seconds is more
#                    than the threshold worse. Records nothing; mega is
#                    skipped (the gated keys don't need it).
#   --threshold PCT  allowed regression for --compare, percent (default 10)
#
# Every recorded entry is stamped at record time with the actual git state
# (`git_rev`, "-dirty" when the tree has uncommitted changes), the UTC
# timestamp (`recorded_at`) and the label; entries pushed onto "history" are
# backfilled with explicit label/recorded_at fields so the trajectory stays
# attributable even for runs recorded before those fields existed.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-perf"
scale=1
label=""
out="$root/BENCH_kernel.json"
run_fig07=1
run_mega=1
mega_clients=1000000
metrics_dir=""
compare=0
threshold=10

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build="$2"; shift 2 ;;
    --scale) scale="$2"; shift 2 ;;
    --label) label="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --skip-fig07) run_fig07=0; shift ;;
    --skip-mega) run_mega=0; shift ;;
    --mega-clients) mega_clients="$2"; shift 2 ;;
    --metrics)
      if [[ $# -gt 1 && "$2" != --* ]]; then metrics_dir="$2"; shift 2
      else metrics_dir="$root/bench-metrics"; shift; fi ;;
    --compare) compare=1; shift ;;
    --threshold) threshold="$2"; shift 2 ;;
    *) echo "perfbench: unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ "$compare" == 1 ]]; then
  run_mega=0
  if [[ ! -f "$out" ]]; then
    echo "perfbench: FATAL: --compare needs a recorded 'current' entry in $out" >&2
    exit 2
  fi
fi

# Tracked numbers are only meaningful for source states that pass the
# mandatory static-analysis gate: refuse to record a BENCH entry from a tree
# with unbaselined pacon-analyze findings.
echo "perfbench: static-analysis gate (scripts/analyze.sh)"
if ! "$root/scripts/analyze.sh" -q; then
  echo "perfbench: FATAL: pacon-analyze reports unbaselined findings; fix them," >&2
  echo "perfbench: lint-allow them with a reason, or refresh the accepted baseline" >&2
  echo "perfbench: (scripts/analyze.sh --write-baseline) before recording numbers." >&2
  exit 1
fi

# A sanitizer build tree would poison the tracked numbers with 2-20x
# instrumentation overhead; refuse loudly rather than record garbage.
if [[ -f "$build/CMakeCache.txt" ]]; then
  san="$(sed -n 's/^PACON_SANITIZE:[A-Z]*=//p' "$build/CMakeCache.txt")"
  if [[ -n "${san// /}" ]]; then
    echo "perfbench: FATAL: $build is a sanitizer build tree (PACON_SANITIZE=$san)." >&2
    echo "perfbench: numbers from instrumented builds are not comparable; use a" >&2
    echo "perfbench: clean Release tree (default: build-perf)." >&2
    exit 1
  fi
  if grep -q '^PACON_DEBUG_COROS:BOOL=ON' "$build/CMakeCache.txt"; then
    echo "perfbench: FATAL: $build has the coroutine-lifetime detector compiled in" >&2
    echo "perfbench: (PACON_DEBUG_COROS=ON); its per-event bookkeeping skews rates." >&2
    exit 1
  fi
  btype="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")"
  if [[ "$btype" != "Release" ]]; then
    echo "perfbench: warning: $build is CMAKE_BUILD_TYPE=$btype, not Release;" >&2
    echo "perfbench: numbers will not be comparable with tracked ones." >&2
  fi
else
  echo "perfbench: configuring $build (Release + LTO)"
  cmake -B "$build" -S "$root" -G Ninja \
    -DCMAKE_BUILD_TYPE=Release -DPACON_LTO=ON >/dev/null
fi

echo "perfbench: building perf_kernel + fig07_single_app + mega_scalability"
cmake --build "$build" --target perf_kernel fig07_single_app mega_scalability \
  -j "$(nproc)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "perfbench: running perf_kernel (scale=$scale)"
"$build/bench/perf_kernel" --scale "$scale" --json "$tmp/kernel.json"

fig07_seconds="null"
if [[ "$run_fig07" == 1 ]]; then
  echo "perfbench: running fig07_single_app (fixed seed, full figure)"
  fig07_env=()
  if [[ -n "$metrics_dir" ]]; then
    mkdir -p "$metrics_dir"
    fig07_env=(PACON_METRICS_DIR="$metrics_dir")
  fi
  t0="$(date +%s.%N)"
  env "${fig07_env[@]}" "$build/bench/fig07_single_app" > "$tmp/fig07.out"
  t1="$(date +%s.%N)"
  fig07_seconds="$(python3 -c "print(f'{$t1 - $t0:.3f}')")"
  echo "perfbench: fig07_single_app wall clock: ${fig07_seconds}s"
  if [[ -n "$metrics_dir" ]]; then
    echo "perfbench: archived run-report sidecar: $metrics_dir/fig07_metrics.json"
  fi
fi

mega_json=""
if [[ "$run_mega" == 1 ]]; then
  echo "perfbench: running mega_scalability (clients=$mega_clients)"
  "$build/bench/mega_scalability" --clients "$mega_clients" --json "$tmp/mega.json"
  mega_json="$tmp/mega.json"
fi

if [[ "$compare" == 1 ]]; then
  # Regression gate: measured-now vs the recorded "current". Lower is worse
  # for rates, higher is worse for wall clocks; either key more than
  # $threshold% worse fails the gate. Nothing is recorded.
  FIG07="$fig07_seconds" OUT="$out" KERNEL="$tmp/kernel.json" THRESHOLD="$threshold" \
  python3 - <<'EOF'
import json, os, sys

with open(os.environ["KERNEL"]) as f:
    measured = json.load(f)
fig07 = os.environ["FIG07"]
if fig07 != "null":
    measured["fig07_wall_seconds"] = float(fig07)
with open(os.environ["OUT"]) as f:
    current = json.load(f).get("current") or {}
threshold = float(os.environ["THRESHOLD"])

failed = False
# (key, lower_is_worse): events/sec regresses when it drops, wall seconds
# regress when they grow.
for key, lower_is_worse in (("kernel_events_per_sec", True),
                            ("fig07_wall_seconds", False)):
    ref, now = current.get(key), measured.get(key)
    if not isinstance(ref, (int, float)) or not isinstance(now, (int, float)) or not ref:
        print(f"perfbench:   {key}: skipped (no reference or not measured)")
        continue
    change = (ref - now) / ref * 100 if lower_is_worse else (now - ref) / ref * 100
    verdict = "REGRESSION" if change > threshold else "ok"
    print(f"perfbench:   {key}: {now:,.3f} vs current {ref:,.3f} "
          f"({change:+.1f}% worse, allowed {threshold:.0f}%) {verdict}")
    if change > threshold:
        failed = True

if failed:
    print(f"perfbench: FAILED: perf regressed more than {threshold:.0f}% "
          "against BENCH_kernel.json 'current'", file=sys.stderr)
    sys.exit(1)
print("perfbench: compare gate passed")
EOF
  exit 0
fi

FIG07="$fig07_seconds" LABEL="$label" OUT="$out" KERNEL="$tmp/kernel.json" \
MEGA="$mega_json" RECORDED_AT="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
python3 - <<'EOF'
import json, os, subprocess

out_path = os.environ["OUT"]
with open(os.environ["KERNEL"]) as f:
    current = json.load(f)
fig07 = os.environ["FIG07"]
current["fig07_wall_seconds"] = None if fig07 == "null" else float(fig07)
if os.environ["MEGA"]:
    with open(os.environ["MEGA"]) as f:
        current.update(json.load(f))

# Provenance is stamped at *record* time, never copied forward from a prior
# entry: the actual HEAD (marked -dirty when the tree has uncommitted edits),
# the UTC timestamp, and the label (always present, even if empty, so every
# entry has the same shape).
current["label"] = os.environ["LABEL"]
current["recorded_at"] = os.environ["RECORDED_AT"]
repo = os.path.dirname(os.path.abspath(out_path))
try:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, cwd=repo).stdout.strip()
    if rev:
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True, cwd=repo).stdout.strip()
        current["git_rev"] = rev + ("-dirty" if dirty else "")
except OSError:
    pass

doc = {"baseline": None, "current": None, "history": []}
if os.path.exists(out_path):
    with open(out_path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError:
            pass
if doc.get("current"):
    # Entries recorded before provenance fields existed get explicit nulls so
    # every history entry answers "what run was this?" the same way.
    entry = dict(doc["current"])
    entry.setdefault("label", None)
    entry.setdefault("recorded_at", None)
    entry.setdefault("git_rev", None)
    doc.setdefault("history", []).append(entry)
if not doc.get("baseline"):
    doc["baseline"] = current
doc["current"] = current

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"perfbench: wrote {out_path}")

base, cur = doc["baseline"], doc["current"]
for key in sorted(cur):
    if key in ("label", "git_rev", "recorded_at"):
        continue
    b, c = base.get(key), cur.get(key)
    if isinstance(b, (int, float)) and isinstance(c, (int, float)) and b:
        lower_is_better = key in ("fig07_wall_seconds", "mega_wall_seconds",
                                   "mega_peak_rss_mb")
        ratio = (b / c) if lower_is_better else (c / b)
        print(f"perfbench:   {key}: {c:,.0f}  ({ratio:.2f}x vs baseline)")
EOF
