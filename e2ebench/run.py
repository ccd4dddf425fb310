#!/usr/bin/env python3
"""Repository benchmark: build hp4_e2e from source and run one workload.

    python3 e2ebench/run.py --workload fleet_steady --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and hp4_e2e into .bench_build/ (Release); later runs only
re-check the build. hp4_e2e's detail line and result line are passed
through; the last line of standard output is the result JSON. Exits
non-zero, printing no result, when the build, the run or the result's
metric set fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet_steady", "fleet_churn_durable", "fabric_replicated")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_env():
    """Compiler and run temporaries stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr,
                          env=build_env()).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", cmake_dir, "--target", "hp4_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=build_env()).returncode:
        fail("build failed")
    return os.path.join(cmake_dir, "hp4_e2e")


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", default="none", choices=("none", "drop-flow-rule"),
                    help="plant a known fault (self-test only)")
    a = ap.parse_args()

    want = expected_metrics(a.trace)
    binary = build()
    work = os.path.join(BUILD, "work", f"{a.workload}-{os.getpid()}")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--fault", a.fault, "--work-dir", work, "--commit", commit()]
    if a.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=build_env())
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode:
        fail(f"{a.workload} exited with code {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("hp4_e2e printed no result line")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: got {sorted(got.items())},"
             f" want {sorted(want.items())}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
