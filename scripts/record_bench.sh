#!/usr/bin/env sh
# Records the simulator's perf trajectory into BENCH_sim.json.
#
# Full mode (default):
#   scripts/record_bench.sh [BUILD_DIR]
# runs the tracked benches — bench_fig2_mesh_msgsize and
# bench_fig3_mesh_nodes under the event engine, bench_lint, the E18
# scale sweep (cycle vs event head-to-head; simulated cycles, wall-clock,
# messages/second, per-engine speedup), and the stream benches
# bench_recovery (E20), bench_stream (E19) and bench_lint_stream (E22)
# under the event engine, serially (--jobs 1, so their wall times
# compare across machines with different core counts) — each with
# --json, and composes the reports into BENCH_sim.json at the repo root.
# Commit the file to track perf across commits.
#
# Smoke mode:
#   scripts/record_bench.sh --smoke [BUILD_DIR]
# runs only bench_fig2_mesh_msgsize (16x16 mesh) under both engines and
# fails (exit 1) if the event engine is not at least as fast as the
# cycle engine — the CI perf gate.  Each engine gets `runs` attempts and
# the best wall time is compared, so scheduler noise cannot flake the
# gate.  It then gates streaming throughput on the same fig2 parameters:
# a window-8 stream must beat the window-1 (stop-and-wait) stream in
# simulated makespan (pcmcast --stream --json; fully deterministic), and
# finally gates the flight recorder: a traced fig2 run must stay within
# 5% of the untraced reference.
#
# Bench CSVs land under results/ (gitignored); only BENCH_sim.json is
# meant to be committed.
#
# Exit code: 0 success, 1 perf regression (smoke) or bench failure,
# 2 usage / missing binaries.
set -u

smoke=0
if [ "${1:-}" = "--smoke" ]; then
  smoke=1
  shift
fi
build="${1:-build}"

cd "$(dirname "$0")/.." || exit 2
if [ ! -x "$build/bench/bench_fig2_mesh_msgsize" ]; then
  echo "record_bench: $build/bench/bench_fig2_mesh_msgsize not found;" \
       "build first (cmake -B build -S . && cmake --build build -j)" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Extracts the "wall_seconds" field from a bench JSON report.
wall_of() {
  sed -n 's/.*"wall_seconds": \([0-9.eE+-]*\).*/\1/p' "$1"
}

if [ "$smoke" -eq 1 ]; then
  runs=3
  best_cycle=""
  best_event=""
  for engine in cycle event; do
    best=""
    i=0
    while [ "$i" -lt "$runs" ]; do
      i=$((i + 1))
      "$build/bench/bench_fig2_mesh_msgsize" --jobs 1 --engine "$engine" \
          --json "$tmp/fig2_$engine.json" >/dev/null || exit 1
      w="$(wall_of "$tmp/fig2_$engine.json")"
      if [ -z "$best" ] || awk "BEGIN{exit !($w < $best)}"; then
        best="$w"
      fi
    done
    if [ "$engine" = cycle ]; then best_cycle="$best"; else best_event="$best"; fi
  done
  echo "record_bench smoke: fig2 16x16 best-of-$runs" \
       "cycle=${best_cycle}s event=${best_event}s"
  if awk "BEGIN{exit !($best_event <= $best_cycle)}"; then
    echo "record_bench smoke: OK (event engine is not slower than cycle)"
  else
    echo "record_bench smoke: FAIL — event engine slower than the cycle" \
         "reference on the 16x16 fig2 workload" >&2
    exit 1
  fi

  # Streaming throughput gate (fig2 parameters: 16x16 mesh, 16 nodes,
  # 4 KB payloads): pipelining at window 8 must beat stop-and-wait.  The
  # compared makespans are simulated cycles, so this cannot flake.
  pcm="$build/tools/pcmcast"
  if [ ! -x "$pcm" ]; then
    echo "record_bench: $pcm not found; build pcmcast first" >&2
    exit 2
  fi
  dests="17,34,51,68,85,102,119,136,153,170,187,204,221,238,255"
  for w in 1 8; do
    "$pcm" --topology mesh:16 --bytes 4096 --source 0 --dests "$dests" \
        --stream 64 --window "$w" --json "$tmp/stream_w$w.json" \
        >/dev/null || exit 1
  done
  makespan_of() {
    sed -n 's/.*"makespan": "\([0-9]*\)".*/\1/p' "$1"
  }
  mk1="$(makespan_of "$tmp/stream_w1.json")"
  mk8="$(makespan_of "$tmp/stream_w8.json")"
  if [ -z "$mk1" ] || [ -z "$mk8" ]; then
    echo "record_bench smoke: FAIL — could not read stream makespans" >&2
    exit 1
  fi
  echo "record_bench smoke: stream 64x4KB makespan window1=$mk1 window8=$mk8"
  if [ "$mk8" -lt "$mk1" ]; then
    echo "record_bench smoke: OK (window-8 stream beats stop-and-wait)"
  else
    echo "record_bench smoke: FAIL — windowed streaming no faster than" \
         "stop-and-wait on the fig2 workload" >&2
    exit 1
  fi

  # Failover gate (same fig2 parameters): kill the source mid-stream with
  # the failure detector and succession enabled.  The run must exit 0,
  # commit all 64 slots through exactly one failover, and finish within a
  # fixed multiple of the clean window-8 makespan — detection plus the
  # window replay is bounded work, not a restart of the stream.  All
  # compared quantities are simulated cycles, so this cannot flake.
  "$pcm" --topology mesh:16 --bytes 4096 --source 0 --dests "$dests" \
      --stream 64 --window 8 --heartbeat 4000 --failover \
      --faults "node:0@200000" --json "$tmp/stream_failover.json" \
      >/dev/null || {
    echo "record_bench smoke: FAIL — failover stream did not exit 0" >&2
    exit 1
  }
  meta_of() {
    sed -n 's/.*"'"$2"'": "\([0-9]*\)".*/\1/p' "$1"
  }
  fmk="$(meta_of "$tmp/stream_failover.json" makespan)"
  fcommit="$(meta_of "$tmp/stream_failover.json" committed)"
  fcount="$(meta_of "$tmp/stream_failover.json" failovers)"
  if [ -z "$fmk" ] || [ -z "$fcommit" ] || [ -z "$fcount" ]; then
    echo "record_bench smoke: FAIL — could not read failover meta" >&2
    exit 1
  fi
  echo "record_bench smoke: failover stream makespan=$fmk" \
       "committed=$fcommit failovers=$fcount (clean window8=$mk8)"
  if [ "$fcommit" -ne 64 ] || [ "$fcount" -ne 1 ]; then
    echo "record_bench smoke: FAIL — source kill must commit all 64 slots" \
         "via exactly one failover" >&2
    exit 1
  fi
  if [ "$fmk" -lt $((mk8 * 3)) ]; then
    echo "record_bench smoke: OK (failover completes within 3x the clean" \
         "window-8 makespan)"
  else
    echo "record_bench smoke: FAIL — failover makespan $fmk exceeds 3x the" \
         "clean window-8 makespan $mk8" >&2
    exit 1
  fi

  # Trace overhead gate: the flight recorder must stay cheap when it is
  # on — the traced fig2 run may cost at most 5% over the untraced
  # best-of-$runs cycle reference measured above.  Best-of-$runs again so
  # scheduler noise cannot flake the gate.
  best_traced=""
  i=0
  while [ "$i" -lt "$runs" ]; do
    i=$((i + 1))
    "$build/bench/bench_fig2_mesh_msgsize" --jobs 1 --engine cycle \
        --trace "$tmp/fig2.pcmt" --json "$tmp/fig2_traced.json" \
        >/dev/null || exit 1
    w="$(wall_of "$tmp/fig2_traced.json")"
    if [ -z "$best_traced" ] || awk "BEGIN{exit !($w < $best_traced)}"; then
      best_traced="$w"
    fi
  done
  echo "record_bench smoke: fig2 16x16 best-of-$runs" \
       "untraced=${best_cycle}s traced=${best_traced}s"
  if awk "BEGIN{exit !($best_traced <= $best_cycle * 1.05)}"; then
    echo "record_bench smoke: OK (tracing overhead within 5%)"
    exit 0
  fi
  echo "record_bench smoke: FAIL — tracing costs more than 5% on the fig2" \
       "workload (untraced ${best_cycle}s, traced ${best_traced}s)" >&2
  exit 1
fi

run() {
  name="$1"
  shift
  echo "record_bench: $name $*"
  "$build/bench/$name" "$@" --json "$tmp/$name.json" >/dev/null || exit 1
}

run bench_fig2_mesh_msgsize --engine event
run bench_fig3_mesh_nodes --engine event
run bench_lint
run bench_scale
run bench_recovery --jobs 1 --engine event
run bench_stream --jobs 1 --engine event
run bench_lint_stream --jobs 1 --engine event

out=BENCH_sim.json
{
  printf '{\n'
  printf '  "suite": "record_bench",\n'
  printf '  "benches": [\n'
  first=1
  for name in bench_fig2_mesh_msgsize bench_fig3_mesh_nodes bench_lint \
              bench_scale bench_recovery bench_stream bench_lint_stream; do
    [ "$first" -eq 1 ] || printf ',\n'
    first=0
    # Each report is already a JSON object; indent it two spaces.
    sed 's/^/  /' "$tmp/$name.json" | sed '${/^[[:space:]]*$/d}'
  done
  printf '\n  ]\n}\n'
} > "$out"
echo "record_bench: wrote $out"
