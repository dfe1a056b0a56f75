#!/usr/bin/env sh
# Sampling profile of one perfbench workload.
#
#   scripts/profile_perfbench.sh WORKLOAD [SECONDS]
#
# Builds the perfbench program (perfbench/) in a tree of its own,
# ${CARGO_TARGET_DIR:-.bench_build}/perfbench-gprof, with -pg on the link
# line only: the program then gets gprof's PC-sampling profile but no
# mcount call in any function, so the code is that of the normal build.
# (Compile-time -pg adds a call to every function: it inflates the share
# of small hot functions and can bill a helper with no symbol of its own
# to an unrelated neighbour.)  Runs WORKLOAD (oneshot_paper,
# stream_reliable, lint_static) for SECONDS (default 8) at seed 1997 with
# its result files in a temporary directory, and prints the flat profile
# (gprof -b -p).  No file under perfbench/ is written.
#
# Exit code: 0 ok, 1 build or run failure, 2 usage error.
set -u

usage() {
  echo "usage: scripts/profile_perfbench.sh WORKLOAD [SECONDS]" >&2
  exit 2
}
[ $# -ge 1 ] && [ $# -le 2 ] || usage
workload=$1
seconds=${2:-8}
case $seconds in
  '' | *[!0-9.]*) usage ;;
esac
command -v gprof > /dev/null || { echo "profile_perfbench: gprof not found" >&2; exit 1; }

root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
build=${CARGO_TARGET_DIR:-$root/.bench_build}/perfbench-gprof
jobs=$(nproc 2> /dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXE_LINKER_FLAGS=-pg >&2 || exit 1
fi
cmake --build "$build" -j "$jobs" >&2 || exit 1

out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT
# gmon.out lands in the program's working directory.
(cd "$out" && "$build/perfbench" --workload "$workload" --seed 1997 \
  --seconds "$seconds" --size full --out "$out" >&2) || exit 1
gprof -b -p "$build/perfbench" "$out/gmon.out"
