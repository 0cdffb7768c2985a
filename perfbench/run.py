#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the run's metrics, and as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones; a
traced run also writes its spans (JSON lines) into the build directory.

Repeat summary:
    python3 perfbench/run.py --repeat N [--workload NAME] [--trace 0|1|both]
                             [--seconds S]

runs each workload N times on seeds 1..N and prints, per workload,
every metric's median, quartiles and quartile spread as a share of the
median, next to the metric's bound.  With --trace both it also prints the
tracing overhead: the traced runs' req/s against the untraced runs'.

Run from the root of the repository.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Exit codes:
0 success, 1 an output check failed, 2 a build or usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(seconds):
    """Time one run may take: 170 s at the 20 s run length, and room for
    set-up and a slow host at any other."""
    return 3 * seconds + 110


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository's src/ is missing; run from a full checkout")
    out = build_dir()
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
           "--target", "adc_perfbench", "perfbench_model_tests"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    tests = subprocess.run([os.path.join(out, "perfbench_model_tests")],
                           stdout=sys.stderr, stderr=sys.stderr)
    if tests.returncode != 0:
        fail("reference-model tests failed", 1)
    return out


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(spec, out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [os.path.join(out, "adc_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(out, f"spans-{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=run_timeout_s(seconds))
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {run_timeout_s(seconds)} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} seed {seed}: last line is not JSON")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(spec, trace):
        fail(f"{workload}: printed metrics differ from BENCHMARK.json")
    return proc.returncode, lines, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(spec, workload, results, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    key = "per_layer" if trace else "end_to_end"
    print(f"\n== {workload} ({len(results)} runs, trace {trace})")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share of attempted: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':36} {'unit':14} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec[key]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(m["name"]) if not trace else None
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"{m['name']:36} {m['unit']:14} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}")


def repeat(spec, args, out):
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    status = 0
    for workload in workloads:
        medians = {}
        for trace in modes:
            results = []
            for seed in range(1, args.repeat + 1):
                code, _, result = run_once(spec, out, workload, seed, args.seconds, trace)
                status = max(status, code)
                results.append(result)
            summarize(spec, workload, results, trace)
            rate = "req_per_s" if trace == 0 else "trace.req_per_s"
            medians[trace] = statistics.median(
                r["metrics"][rate]["value"] for r in results)
        if len(modes) == 2:
            overhead = 1.0 - medians[1] / medians[0]
            print(f"tracing overhead on {workload}: untraced {medians[0]:.6g} req/s, "
                  f"traced {medians[1]:.6g} req/s, {100 * overhead:.2f}% slower")
    return status


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1", "both"], default="0")
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if args.repeat > 0:
        sys.exit(repeat(spec, args, build()))
    if args.workload is None or args.trace == "both":
        fail("a single run takes --workload and --trace 0 or 1")
    out = build()
    code, lines, _ = run_once(spec, out, args.workload, args.seed, args.seconds,
                              int(args.trace))
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
