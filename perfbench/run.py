#!/usr/bin/env python3
"""Build and run the tdmd benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload api-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 101 --seconds 30 --repeat 10

A single run builds the program into .bench_build/ (or $CARGO_TARGET_DIR),
runs one workload in a fresh process and passes its output through; the
last line of standard output is the JSON result. With --repeat N each
chosen workload runs N times with seeds seed, seed+1, ... and the script
prints every metric's median, quartiles and spread (interquartile range
over median), then one JSON line with the same numbers. Each run's own
metrics go to standard error as it finishes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["api-mix", "job-stream", "online-churn"]
# A cold build compiles the standard library too; build plus the first
# run must stay within 900 s, every later run within 180 s.
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Compiles the benchmark with every Go cache kept inside out."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOTELEMETRY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return binary


def run_once(binary, out, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    env = dict(os.environ)
    env.pop("GOMAXPROCS", None)  # one P per CPU, as the workloads assume
    proc = subprocess.run(
        [binary, "-workload", workload, "-seed", str(seed),
         "-seconds", str(seconds), "-trace", str(trace),
         "-trace-dir", os.path.join(out, "traces")],
        env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    return proc.returncode, proc.stdout


def summarize(runs):
    """Median, quartiles and spread of each metric over runs."""
    out = {}
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def repeat(binary, out, args):
    chosen = WORKLOADS if args.workload == "all" else [args.workload]
    report = {}
    for workload in chosen:
        runs = []
        for i in range(args.repeat):
            code, stdout = run_once(binary, out, workload, args.seed + i, args.seconds, args.trace)
            if code != 0:
                raise SystemExit(f"perfbench: {workload} seed {args.seed + i} exited {code}")
            res = json.loads(stdout.strip().splitlines()[-1])
            print(f"perfbench: {workload} seed {args.seed + i}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
            if not res["correct"] or res["failed"]:
                print(f"perfbench: {workload} seed {args.seed + i}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
            runs.append(res)
        stats = summarize(runs)
        report[workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "metrics": stats,
        }
        print(f"{workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + len(runs) - 1}, "
              f"all correct: {report[workload]['all_correct']}")
        for name, s in stats.items():
            print(f"  {name:<30} median {s['median']:>12.5g} {s['unit']:<6} "
                  f"q1 {s['q1']:>12.5g}  q3 {s['q3']:>12.5g}  spread {s['spread']:7.2%}")
    print(json.dumps(report))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload this many times and print medians and quartiles")
    args = ap.parse_args()
    if args.workload == "all" and not args.repeat:
        ap.error("--workload all needs --repeat")

    out = build_dir()
    binary = build(out)
    if args.repeat:
        repeat(binary, out, args)
        return
    code, stdout = run_once(binary, out, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    sys.exit(code)


if __name__ == "__main__":
    try:
        main()
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills and reaps the child before raising.
        raise SystemExit(f"perfbench: timed out: {e.cmd[0]}")
