#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload push-fanout --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark program (perfbench/*.cpp) is configured as
its own CMake project that pulls in the repository's src/ tree, built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and run once.
Its last stdout line is the result object; build output goes to stderr. A
traced run (--trace 1) also writes its spans to
<build dir>/traces/<workload>-seed<seed>.json.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("push-fanout", "pull-hotspot", "swap-churn")
RUN_TIMEOUT_S = 80


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "servebench",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def source_id():
    """git commit when the checkout is a git repository, else a digest of
    the built sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT}")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    base = [
        str(build_dir / "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--build-type", cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "--compiler", cache_value(build_dir, "CMAKE_CXX_COMPILER"),
        "--commit", source_id(),
    ]
    if not args.trace:
        report, result = run_servebench(base + ["--trace", "0"])
    else:
        # Tracing overhead: the same seed untraced, then traced, each in a
        # fresh process so neither inherits the other's server state.
        plain_report, plain = run_servebench(base + ["--trace", "0"])
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.json"
        report, result = run_servebench(
            base + ["--trace", "1", "--trace-out", str(trace_file)])
        traced_e2e = report["report"]["pass"]["metrics"]
        for name, metric in plain["metrics"].items():
            result["metrics"]["overhead." + name] = {
                "value": traced_e2e[name]["value"] - metric["value"],
                "unit": metric["unit"]}
        report["report"]["untraced"] = plain_report["report"]["pass"]
    print(json.dumps(report))
    print(json.dumps(result), flush=True)


def run_servebench(command):
    """Runs servebench once; returns its (report, result) objects."""
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"servebench exited with {run.returncode}", run.returncode)
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("servebench printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


if __name__ == "__main__":
    main()
