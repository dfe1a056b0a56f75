#!/bin/sh
# Runs the mutation registry (tests/mutations.txt): applies each mutant to
# a scratch copy of the tree, rebuilds only the test binary it names, and
# requires the test filter to fail.  Prints one line per mutant.
#
#   sh scripts/mutate.sh [WORKDIR]
#
# WORKDIR (default: a fresh mktemp directory) receives the copy and its
# build tree; reusing one keeps the build warm.  Exit 0 when every mutant
# is killed except the listed survivors, 1 when a mutant survives
# unexpectedly or a listed survivor is killed, 2 when an anchor does not
# match exactly once, a mutant does not build, or an unmutated test fails.
set -eu
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=${1:-$(mktemp -d)}
mkdir -p "$WORK/src"
# The tracked files as they stand, uncommitted edits included; -m stamps
# them now, so a reused WORKDIR rebuilds what a last mutant left behind.
(cd "$ROOT" && git ls-files -z | tar --null -T - -cf -) | tar -xmf - -C "$WORK/src"
cmake -S "$WORK/src" -B "$WORK/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
exec python3 - "$ROOT/tests/mutations.txt" "$WORK" <<'PY'
import os, subprocess, sys

registry, work = sys.argv[1], sys.argv[2]
src, build = os.path.join(work, "src"), os.path.join(work, "build")
jobs = str(min(4, os.cpu_count() or 1))


def unescape(text):
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in "n\\":
            out.append("\n" if text[i + 1] == "n" else "\\")
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


entries, cur = [], {}
for line in open(registry, encoding="utf-8").read().split("\n") + [""]:
    if line.startswith("#"):
        continue
    if not line.strip():
        if cur:
            entries.append(cur)
            cur = {}
        continue
    key, _, value = line.partition(": ")
    cur[key] = value
for e in entries:
    missing = {"name", "file", "anchor", "replace", "test"} - e.keys()
    if missing:
        sys.exit(f"mutate: entry {e.get('name', '?')} lacks {sorted(missing)}")


def build_ok(target):
    r = subprocess.run(["cmake", "--build", build, "-j", jobs, "--target", target],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return r.returncode == 0


def passes(entry):
    binary, _, flt = entry["test"].partition(" ")
    try:
        r = subprocess.run([os.path.join(build, "tests", binary), "--gtest_brief=1",
                            "--gtest_filter=" + flt],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           timeout=600)
    except subprocess.TimeoutExpired:
        return False  # a mutant that wedges a test is caught too
    return r.returncode == 0


# Every anchor must match once, and every filter must pass unmutated.
for e in entries:
    text = open(os.path.join(src, e["file"]), encoding="utf-8").read()
    n = text.count(unescape(e["anchor"]))
    if n != 1:
        sys.exit(f"mutate: {e['name']}: anchor matches {n} times in {e['file']}")
for target in sorted({e["test"].split(" ")[0] for e in entries}):
    if not build_ok(target):
        sys.exit(f"mutate: {target} does not build unmutated")
for e in entries:
    if not passes(e):
        sys.exit(f"mutate: {e['name']}: '{e['test']}' fails unmutated")

status = 0
for e in entries:
    path = os.path.join(src, e["file"])
    original = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(original.replace(unescape(e["anchor"]), unescape(e["replace"])))
    try:
        if not build_ok(e["test"].split(" ")[0]):
            print(f"BROKEN   {e['name']}: the mutant does not build", flush=True)
            status = 2
            continue
        killed = not passes(e)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
    expected = "survives" not in e
    if killed and expected:
        print(f"killed   {e['name']}", flush=True)
    elif not killed and not expected:
        print(f"survived {e['name']} (expected: {e['survives']})", flush=True)
    elif killed:
        print(f"KILLED   {e['name']}: listed as a survivor, update the registry",
              flush=True)
        status = max(status, 1)
    else:
        print(f"SURVIVED {e['name']}: no test in '{e['test']}' fails", flush=True)
        status = max(status, 1)
sys.exit(status)
PY
