#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 e2ebench/selftest.py [--seconds 2]

A short run with a flow rule deleted through the public API (--fault
drop-flow-rule) must report fail_ratio > 0: on fleet_steady, one tenant's
last-position flow rules (restore_tenant from a trimmed snapshot); on the
fabric, the h<i>b forwarding rule.
A clean short run of every workload must report fail_ratio 0 with every
metric BENCHMARK.json names present and unit-labelled, untraced and
traced. Exits 0 when every case passes, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace=0, fault="none"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
           "--fault", fault]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode:
        return None, p.stderr.strip().splitlines()[-1:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {mode: {m["name"]: m["unit"] for m in spec[key]}
             for mode, key in ((0, "end_to_end"), (1, "per_layer"))}

    failures = []

    def expect(name, ok, info):
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {info}", flush=True)
        if not ok:
            failures.append(name)

    for w in ("fleet_steady", "fabric_replicated"):
        detail, res = run(w, a.seconds, fault="drop-flow-rule")
        if detail is None:
            expect(f"{w} planted fault", False, res)
            continue
        expect(f"{w} planted fault caught",
               detail["fail_ratio"] > 0 and res["failed"] > 0 and not res["correct"],
               f"fail_ratio={detail['fail_ratio']} checks={detail['checks']}")

    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            detail, res = run(w, a.seconds, trace=trace)
            name = f"{w} clean trace={trace}"
            if detail is None:
                expect(name, False, res)
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            labelled = all(isinstance(v.get("value"), (int, float)) and v.get("unit")
                           for v in res["metrics"].values())
            expect(name,
                   detail["fail_ratio"] == 0 and res["correct"] and
                   got == units[trace] and labelled,
                   f"fail_ratio={detail['fail_ratio']} metrics={len(got)}"
                   f"/{len(units[trace])}")

    print("selftest:", "FAILED " + ", ".join(failures) if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
