#!/usr/bin/env python3
"""Builds and runs the GNNOne end-to-end benchmark.

One run of one workload (the result is the last line of stdout):

    python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 15 --trace 0

Steadiness check over every workload (host-metric spreads, and modeled
metrics repeating exactly across runs and host thread counts):

    python3 perfbench/run.py steady [--runs 5] [--seconds 15] [--seed 1]

The benchmark is compiled from the repository's sources on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
repository root; build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train_gat", "serve_closed", "serve_open", "serve_sharded"]
# Simulator host worker threads, fixed so host time compares across
# machines with different core counts. One thread: on a shared 4-vCPU host
# a two-thread pool's round rates swung by up to 30% between runs while a
# single thread held within ~5% (see README.md).
PINNED_THREADS = 1
# A second, parallel thread count for the determinism check.
PARALLEL_THREADS = max(2, min(4, os.cpu_count() or 1))
# Metrics of the modeled design: exact for a fixed seed.
MODELED = ("modeled_kcycles_per_item", "modeled_p50_kcycles",
           "modeled_p99_kcycles", "modeled_makespan_mcycles")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "gnnone.h")):
        fail("repository sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, threads=PINNED_THREADS):
    """One benchmark process; returns (exit code, stdout text)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads), "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def steady(binary, args):
    """Runs every workload --runs times on consecutive seeds, prints each
    end-to-end metric's median and quartiles against its bound, checks
    that the modeled metrics of the first seed repeat exactly in a second
    run and at a parallel host thread count, and makes one traced run per
    workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    ok = True
    for w in args.workloads:
        results = []
        for i in range(args.runs):
            code, out = run_once(binary, w, args.seed + i, args.seconds, 0)
            res = parse_result(out)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w}: run with seed {args.seed + i} failed (exit {code})")
                ok = False
                continue
            results.append(res)
        if not results:
            continue
        if set(results[0]["metrics"]) != set(bounds):
            print(f"{w}: end-to-end metrics differ from BENCHMARK.json")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {len(results)} runs, seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            flag = "" if spread <= bound / 3 else "  WIDE"
            print(f"  {name:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
        # Determinism: the first seed again, at the pinned count and with a
        # parallel functional pass.
        first = results[0]["metrics"]
        for threads in (PINNED_THREADS, PARALLEL_THREADS):
            code, out = run_once(binary, w, args.seed, args.seconds, 0, threads)
            res = parse_result(out)
            same = (code == 0 and res is not None and all(
                res["metrics"][m]["value"] == first[m]["value"] for m in MODELED))
            print(f"  modeled metrics repeat at {threads} host thread(s): "
                  f"{'yes' if same else 'NO'}")
            ok = ok and same
        # One traced run: per-layer names and the tracing overhead.
        code, out = run_once(binary, w, args.seed, args.seconds, 1)
        res = parse_result(out)
        if code != 0 or res is None or set(res["metrics"]) != layer_names:
            print(f"  traced run failed or its metrics differ from BENCHMARK.json")
            ok = False
        else:
            m = res["metrics"]
            print(f"  traced run: items_per_s {m['trace.items_per_s']['value']:.4g}, "
                  f"tracing overhead {m['trace.overhead_share']['value']:+.3f}")
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        p = argparse.ArgumentParser(prog="run.py steady")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seconds", type=int, default=15)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workloads", nargs="+", default=WORKLOADS,
                       choices=WORKLOADS)
        args = p.parse_args(sys.argv[2:])
        sys.exit(steady(build(), args))

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    binary = build()
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
