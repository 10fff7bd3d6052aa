#!/usr/bin/env python3
"""Self-test of the tlbsim benchmark at a tiny scale (about a minute).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--scale tiny, once untraced and twice traced on one seed, and checks:
  * each run exits 0 and its last line is the result object with exactly
    the keys correct/attempted/failed/metrics, correct true;
  * every end-to-end (untraced) and per-layer (traced) name of
    BENCHMARK.json is printed, with the unit BENCHMARK.json gives it;
  * every metric name uses only [A-Za-z0-9_.-] and starts with a letter
    or digit;
  * the isolated lb driver's decision checksums, and the simulated-result
    digest, are identical on the two traced runs of one seed, and the
    digest is the same untraced.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = "7"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" %
                 (workload, trace, proc.returncode, proc.stdout))
    return json.loads(lines[-2]), json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        sys.exit("FAIL " + what)


def check_result(workload, trace, result, wanted):
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "%s: result keys %s" % (workload, sorted(result)))
    expect(result["correct"] is True and result["failed"] == 0 and
           result["attempted"] >= 1, "%s: %s" % (workload, result))
    metrics = result["metrics"]
    for name in metrics:
        expect(NAME.match(name) is not None, "bad metric name '%s'" % name)
    for m in wanted:
        got = metrics.get(m["name"])
        expect(got is not None,
               "%s trace=%d: %s not printed" % (workload, trace, m["name"]))
        expect(got.get("unit") == m["unit"],
               "%s: %s unit %r, BENCHMARK.json says %r" %
               (workload, m["name"], got.get("unit"), m["unit"]))
        expect(isinstance(got.get("value"), (int, float)),
               "%s: %s has no numeric value" % (workload, m["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in bench[group]:
            expect(NAME.match(item["name"]) is not None,
                   "bad name '%s' in BENCHMARK.json" % item["name"])
    for w in (w["name"] for w in bench["workloads"]):
        detail_0, result = run(w, 0)
        check_result(w, 0, result, bench["end_to_end"])
        detail_a, result_a = run(w, 1)
        check_result(w, 1, result_a, bench["per_layer"])
        detail_b, result_b = run(w, 1)
        for key in ("lb.ecmp.checksum_lo32", "lb.drill.checksum_lo32",
                    "lb.tlb.checksum_lo32"):
            expect(detail_a["raw"][key] == detail_b["raw"][key],
                   "%s: %s differs between two runs of seed %s" %
                   (w, key, SEED))
        expect(result_a["metrics"]["result.digest"] ==
               result_b["metrics"]["result.digest"],
               "%s: result.digest differs between two runs" % w)
        expect(detail_0["result_digest"] == detail_a["result_digest"],
               "%s: simulated results differ between --trace 0 and 1" % w)
        print("ok %s" % w)
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
