#!/usr/bin/env python3
"""The treesched benchmark.

    python3 perfbench/run.py                      # every workload, end to end
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest           # the benchmark's own tests

Builds the library and the benchmark program from the sources of the
checkout it sits in (into .bench_build/), runs each workload in its own
process, checks the result against BENCHMARK.json and prints it. With one
workload the last line of stdout is the result object; with --trace 1 it
holds the per-layer metrics instead of the end-to-end ones.

Exit status: 0 when every check passed; 1 when a correctness check failed
(the result is printed with "correct": false); 2 when the benchmark could
not run (bad BENCHMARK.json, build failure, crash, malformed result) -- no
result is printed then.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CHILD_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _relative_ok(p):
    return not p.startswith("/") and ".." not in p.split("/")


def schema_errors(doc, size_bytes=0):
    """Every way `doc` breaks the BENCHMARK.json schema; empty when valid."""
    errs = []
    if size_bytes > 64 * 1024:
        errs.append("file larger than 64 KiB")
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if set(doc) != TOP_KEYS:
        errs.append("top-level keys must be exactly %s" % sorted(TOP_KEYS))
        return errs

    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errs.append("paths: 1 to 16 entries")
    else:
        for p in paths:
            if not (isinstance(p, str) and PATH_RE.match(p) and _relative_ok(p)):
                errs.append("paths: bad entry %r" % (p,))

    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32):
        errs.append("command: 1 to 32 strings")
    else:
        for c in cmd:
            if not (isinstance(c, str) and len(c) <= 200 and _relative_ok(c)):
                errs.append("command: bad entry %r" % (c,))

    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errs.append("run_seconds: a whole number from 1 to 60")

    names = []

    def check_list(key, lo, hi, keys, extra):
        items = doc[key]
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            errs.append("%s: %d to %d entries" % (key, lo, hi))
            return
        for it in items:
            if not (isinstance(it, dict) and set(it) == keys):
                errs.append("%s: entry %r must have exactly %s"
                            % (key, it, sorted(keys)))
                continue
            if not (isinstance(it["name"], str) and NAME_RE.match(it["name"])):
                errs.append("%s: bad name %r" % (key, it["name"]))
            names.append(it["name"])
            extra(it)

    def workload_extra(it):
        why = it["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200
                and "\n" not in why):
            errs.append("workload %s: why must be one line of at most 200 "
                        "characters" % it["name"])

    def metric_extra(it):
        if not (isinstance(it["unit"], str) and UNIT_RE.match(it["unit"])):
            errs.append("metric %s: bad unit %r" % (it["name"], it["unit"]))
        if it["better"] not in ("higher", "lower"):
            errs.append("metric %s: better must be higher or lower"
                        % it["name"])

    def bounded_extra(it):
        metric_extra(it)
        b = it["bound"]
        if not (isinstance(b, (int, float)) and not isinstance(b, bool)
                and 0 < b <= 0.25):
            errs.append("metric %s: bound must be in (0, 0.25]" % it["name"])

    check_list("workloads", 2, 8, {"name", "why"}, workload_extra)
    check_list("end_to_end", 1, 16, {"name", "unit", "better", "bound"},
               bounded_extra)
    check_list("per_layer", 1, 128, {"name", "unit", "better"}, metric_extra)

    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        errs.append("names used more than once: %s" % dupes)
    setup = [m for m in doc["end_to_end"] if isinstance(m, dict)
             and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errs.append("end_to_end must hold setup_s in s, better lower")
    elif isinstance(setup[0].get("bound"), (int, float)) and any(
            isinstance(m, dict) and isinstance(m.get("bound"), (int, float))
            and m["bound"] > setup[0]["bound"] for m in doc["end_to_end"]):
        errs.append("setup_s must have the largest bound")
    return errs


def result_errors(obj, expected):
    """How a workload's result object departs from the contract, given the
    expected (name, unit) pairs; empty when it conforms."""
    errs = []
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, "
                "metrics"]
    if not isinstance(obj["correct"], bool):
        errs.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        v = obj[k]
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= 0):
            errs.append("%s must be a whole number" % k)
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        errs.append("attempted must be at least 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        return errs + ["metrics must be an object"]
    want = dict(expected)
    if set(metrics) != set(want):
        errs.append("metric names differ from BENCHMARK.json: missing %s, "
                    "extra %s" % (sorted(set(want) - set(metrics)),
                                  sorted(set(metrics) - set(want))))
    for name, m in metrics.items():
        if not (isinstance(m, dict) and set(m) == {"value", "unit"}):
            errs.append("metric %s must be {value, unit}" % name)
            continue
        v = m["value"]
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v)):
            errs.append("metric %s: value is not a finite number" % name)
        if name in want and m["unit"] != want[name]:
            errs.append("metric %s: unit %r, BENCHMARK.json says %r"
                        % (name, m["unit"], want[name]))
    return errs


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    raw = path.read_bytes()
    try:
        doc = json.loads(raw)
    except ValueError as e:
        raise BenchError("BENCHMARK.json is not JSON: %s" % e)
    errs = schema_errors(doc, len(raw))
    if errs:
        raise BenchError("BENCHMARK.json: " + "; ".join(errs))
    return doc


def build():
    """Configures (once) and builds the benchmark; returns the bin dir."""
    if not (ROOT / "src" / "treesched").is_dir():
        raise BenchError("library sources not found under %s" % (ROOT / "src"))
    out = BUILD / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    step = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=log, stderr=log)
    if step.returncode != 0:
        raise BenchError("build failed")
    return out


def run_selftest(bindir):
    code = subprocess.run([str(bindir / "perfbench_selftest")],
                          stdout=sys.stderr, stderr=sys.stderr).returncode
    if code != 0:
        raise BenchError("perfbench_selftest failed")


def run_workload(bindir, doc, name, seed, seconds, trace):
    """Runs one workload process; returns (result line, parsed result,
    human-readable lines)."""
    work = BUILD / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(bindir / "perfbench"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir",
           str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s"
                         % (name, CHILD_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("%s exited with status %d" % (name, proc.returncode))
    last = lines[-1]
    try:
        obj = json.loads(last)
    except ValueError:
        raise BenchError("%s printed no result line" % name)
    section = doc["per_layer"] if trace else doc["end_to_end"]
    errs = result_errors(obj, [(m["name"], m["unit"]) for m in section])
    if errs:
        raise BenchError("%s: %s" % (name, "; ".join(errs)))
    if (proc.returncode == 0) != (obj["correct"] and obj["failed"] == 0):
        raise BenchError("%s: exit status and result disagree" % name)
    return last, obj, lines[:-1]


def host_notes():
    return "host: nproc %d, build Release (-O2 -DNDEBUG), %s" % (
        os.cpu_count() or 0, sys.platform)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    try:
        doc = load_benchmark()
        names = [w["name"] for w in doc["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError("unknown workload %r (one of %s)"
                             % (args.workload, ", ".join(names)))
        seconds = args.seconds or doc["run_seconds"]
        bindir = build()
        run_selftest(bindir)
        if args.selftest:
            tests = subprocess.run(
                [sys.executable, "-m", "unittest", "discover", "-s",
                 str(HERE / "tests"), "-p", "test_*.py"])
            return 0 if tests.returncode == 0 else 1

        if args.workload != "all":
            last, obj, lines = run_workload(bindir, doc, args.workload,
                                            args.seed, seconds, args.trace)
            print(host_notes())
            for line in lines:
                print(line)
            print(last, flush=True)
            return 0 if obj["correct"] else 1

        # Every workload in its own process, then one table.
        print(host_notes())
        section = doc["per_layer"] if args.trace else doc["end_to_end"]
        results = {}
        for name in names:
            print("== %s" % name, flush=True)
            _, obj, lines = run_workload(bindir, doc, name, args.seed,
                                         seconds, args.trace)
            for line in lines:
                print(line)
            results[name] = obj
        print("\n%-28s %-12s" % ("metric", "unit")
              + "".join("%18s" % n for n in names))
        for m in section:
            print("%-28s %-12s" % (m["name"], m["unit"]) + "".join(
                "%18.6g" % results[n]["metrics"][m["name"]]["value"]
                for n in names))
        print("%-28s %-12s" % ("failed / attempted", "count") + "".join(
            "%18s" % ("%d/%d" % (results[n]["failed"], results[n]["attempted"]))
            for n in names))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
