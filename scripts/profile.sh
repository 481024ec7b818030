#!/usr/bin/env bash
# Flat profile of one program: runs a binary built with the `profile`
# preset (-pg) and prints gprof's 15 hottest functions by self time.
#
#   cmake --preset profile
#   cmake --build --preset profile -j --target fig16_trace_cdf
#   CYCLOPS_THREADS=1 ./scripts/profile.sh build-profile/bench/fig16_trace_cdf 50
#
# gprof samples only the main thread, so run threaded programs at pool
# width 1.  The program runs in a temporary directory (its own output
# files and gmon.out never land in the tree); its stdout is shown only if
# it fails.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <binary> [args...]" >&2
  exit 2
fi
command -v gprof > /dev/null || { echo "gprof not found" >&2; exit 1; }
binary="$(realpath "$1")"
shift

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
if ! (cd "${work}" && "${binary}" "$@" > program.out 2>&1); then
  cat "${work}/program.out" >&2
  echo "FAIL: ${binary} exited non-zero" >&2
  exit 1
fi
if [[ ! -f "${work}/gmon.out" ]]; then
  echo "no gmon.out: build ${binary} with the profile preset (-pg)" >&2
  exit 1
fi
# The flat profile's header runs through the column-title line that ends
# in "name"; keep it and the first 15 rows below it.
gprof -b -p "${binary}" "${work}/gmon.out" |
  awk 'BEGIN { rows = -1 }
       rows < 0 { print; if (/name *$/) rows = 0; next }
       rows < 15 { print; rows++ }'
