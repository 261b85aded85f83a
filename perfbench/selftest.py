#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs the benchmark briefly untraced and traced, and checks that the last
line is the JSON result, that every end-to-end (untraced) or per-layer
(traced) metric is there with its unit and a finite value, and that the
counts are whole numbers. It then runs one workload with an injected
correctness fault and checks that the run is reported as incorrect.
geo-send, which the benchmark can run but BENCHMARK.json does not list
(see README.md), is run untraced as well: its end-to-end metrics must be
there, whatever its correctness checks read. Exits 0 when everything holds.
"""

import json
import math
import os
import subprocess
import sys

SECONDS = "0.3"
UNLISTED = ["geo-send"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    if p.returncode != 0:
        return None, "exit code %d" % p.returncode
    lines = p.stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError) as e:
        return None, "no JSON result on the last line: %s" % e


def check_result(result, expected):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys %s" % sorted(result))
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append("%s is not a whole number" % key)
    if result.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric %s" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s has unit %r, not %r" % (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append("%s value %r" % (m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, err = run(w["name"], trace)
            problems = [err] if err else check_result(result, expected)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("%-16s trace=%d %s" % (w["name"], trace, status), flush=True)
            failures += bool(problems)
    for name in UNLISTED:
        result, err = run(name, 0)
        problems = [err] if err else check_result(result, spec["end_to_end"])
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print("%-16s trace=0 %s (unlisted; correct=%s)"
              % (name, status, result and result["correct"]), flush=True)
        failures += bool(problems)
    name = spec["workloads"][0]["name"]
    result, err = run(name, 0, "--inject-fault")
    if err or result["correct"] is not False:
        print("injected fault    FAILED: not reported as incorrect (%s)" % (err or result["correct"]))
        failures += 1
    else:
        print("injected fault    ok: reported as incorrect")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
