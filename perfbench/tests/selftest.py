#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/tests/selftest.py

Builds the benchmark, then checks: the span self-time arithmetic
(spans_test), a smoke size of every workload, that printed metric names
equal BENCHMARK.json's, that --seed changes the inputs but not the metric
names, that the known stall is reported as a failure with a reproducer,
and that the benchmark refuses to run without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PB = os.path.dirname(HERE)
ROOT = os.path.dirname(PB)
OUT = os.path.join(PB, "results", "selftest")
sys.path.insert(0, PB)
import run  # noqa: E402  (perfbench/run.py: build())

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def perfbench(binary, workload, seed=1997, trace=0, size="smoke", seconds=0):
    """Runs the binary; returns (last-line JSON, stdout, result-file JSON)."""
    p = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--size", size, "--out", OUT],
                       capture_output=True, text=True, timeout=170)
    expect(p.returncode == 0, f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        result = json.load(f)
    return last, p.stdout, result


def main():
    build_dir = run.build()
    binary = os.path.join(build_dir, "perfbench")
    os.makedirs(OUT, exist_ok=True)

    r = subprocess.run([os.path.join(build_dir, "perfbench_spans_test")])
    expect(r.returncode == 0, "spans_test (self-time arithmetic, Chrome JSON)")

    # stream_clean is runnable but left out of BENCHMARK.json (see README).
    for w in [w["name"] for w in SPEC["workloads"]] + ["stream_clean"]:
        last, out, result = perfbench(binary, w)
        expect(set(last) == {"correct", "attempted", "failed", "metrics"},
               f"{w}: result line keys")
        expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
               f"{w}: smoke run correct")
        expect(list(last["metrics"]) == E2E, f"{w}: end-to-end names == BENCHMARK.json")
        expect(all(v["value"] > 0 for v in last["metrics"].values()),
               f"{w}: end-to-end metrics are never 0")
        for key in ("nproc", "compiler", "build_type", "commit", "seed"):
            expect(key in result["env"], f"{w}: result file records env {key}")

        again, _, again_result = perfbench(binary, w)
        expect(again_result["digest"] == result["digest"], f"{w}: same seed, same digest")
        sims = {k: v for k, v in result["metrics"].items() if v["unit"] == "cycles"}
        expect(sims and all(again_result["metrics"][k] == v for k, v in sims.items()),
               f"{w}: same seed, identical simulated metrics")

        other, _, other_result = perfbench(binary, w, seed=7)
        expect(list(other["metrics"]) == E2E, f"{w}: seed 7 keeps the metric names")
        expect(other_result["digest"] != result["digest"], f"{w}: seed 7 changes the inputs")

        traced, out, _ = perfbench(binary, w, trace=1)
        expect(list(traced["metrics"]) == LAYERS, f"{w}: per-layer names == BENCHMARK.json")
        with open(os.path.join(OUT, f"{w}-seed1997-trace1.spans.json")) as f:
            events = json.load(f)["traceEvents"]
        ops = [e for e in events if e["name"] == "op"]
        expect(ops and all(e["ph"] == "X" for e in events), f"{w}: Perfetto span file")
        expect(any(e["args"]["parent"] >= 0 for e in events), f"{w}: layer spans under ops")

    # The known stall is a failure with a reproducer, never a skip.
    last, out, _ = perfbench(binary, "stall_repro", size="full")
    expect(not last["correct"] and last["failed"] == last["attempted"] >= 1,
           "stall_repro: every run reported failed")
    expect("FAILED stall_repro op 0" in out and "committed 1209/2000" in out and
           "raw_seed 0xb62c647aa311bdd8" in out, "stall_repro: reproducer printed")

    r = subprocess.run([binary, "--workload", "no_such_workload"], capture_output=True)
    expect(r.returncode == 2, "unknown workload exits 2")

    # Without the library sources the benchmark must fail without a result.
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(PB, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lint_static",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    expect(r.returncode != 0 and "correct" not in r.stdout,
           "bare checkout: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
