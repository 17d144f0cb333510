#!/usr/bin/env bash
# Prints the coroutine frame size of every Task ramp in a binary, read from
# the constant each ramp passes to the frame pool's frame_alloc in
# `objdump -d`. A ramp the compiler inlined into its caller appears under the
# caller's symbol (RpcService::call, for one, shows up under
# MemCacheCluster::route), so one symbol may list several frames.
#
# Usage: scripts/frame_sizes.sh <binary> [regex]
#   <binary>  an optimised build of any target linking the frame pool, e.g.
#             .bench_build/perfbench/perfbench_driver
#   [regex]   extended regex over the demangled symbol (default: all)
#
# Output: one line per frame_alloc call site, "<bytes> <class> <symbol>",
# where <class> is the 64-B pool block the frame lands in (frame plus the
# 16-B block header), sorted by symbol. Builds with the pool compiled out
# (sanitizers, coroutine detector) call operator new instead and print
# nothing.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <binary> [regex]" >&2
  exit 2
fi
bin="$1"
regex="${2:-.}"

objdump -d -C --no-show-raw-insn "$bin" | awk -v re="$regex" '
  function hex(s,    i, c, v) {
    v = 0
    s = tolower(s)
    for (i = 1; i <= length(s); ++i) {
      c = index("0123456789abcdef", substr(s, i, 1)) - 1
      v = v * 16 + c
    }
    return v
  }
  # Function header: "0000000000401234 <symbol>:"
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    size = ""
    next
  }
  # The size argument: an immediate moved into the first argument register.
  /mov[lq]? +\$0x[0-9a-f]+,%[er]di$/ {
    match($0, /\$0x[0-9a-f]+/)
    size = hex(substr($0, RSTART + 3, RLENGTH - 3))
    next
  }
  /call/ {
    if ($0 ~ /<pacon::sim::detail::frame_alloc\(unsigned long\)>/ && size != "" && fn ~ re) {
      block = int((size + 16 + 63) / 64) * 64
      printf "%6d %6d  %s\n", size, block, fn
    }
    size = ""
  }
' | sort -k3 -s
