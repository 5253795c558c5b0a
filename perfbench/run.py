#!/usr/bin/env python3
"""The repository benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds `isf` and the benchmark program with dune, runs workload W and
passes that program's output through: the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit
code is non-zero when the build fails or any output is wrong.

Steadiness report:

    python3 perfbench/run.py --steadiness [--runs 10] [--seconds S]
                             [--workloads a,b]

runs the workloads interleaved, each run with another seed, and prints
for every end-to-end metric its median, quartiles and IQR/median,
flagging any spread above the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PB = os.path.join("_build", "default", "perfbench", "pb.exe")


def build():
    cmd = ["dune", "build", "--root", ".", "./bin/isf.exe", "./perfbench/pb.exe"]
    try:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 1
    if rc == 0 and not os.path.exists(PB):
        return 1
    return rc


def run_once(workload, seed, seconds, trace, capture=False):
    cmd = [PB, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                         text=True)
    try:
        out, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        # SIGTERM lets pb.exe stop the daemons it started
        p.terminate()
        try:
            p.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return 1, None
    lines = (out or "").strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if capture and lines else None)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def steadiness(args):
    spec = load_spec()
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in names}
    bad = 0
    for i in range(args.runs):
        for w in names:
            t0 = time.monotonic()
            rc, out = run_once(w, args.first_seed + i, seconds, 0, capture=True)
            took = time.monotonic() - t0
            if rc != 0 or out is None or not out["correct"]:
                print(f"{w} seed {args.first_seed + i}: failed (exit {rc})")
                bad += 1
                continue
            for m, v in out["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
            print(f"{w} seed {args.first_seed + i} ({took:.1f} s): " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in out["metrics"].items()),
                flush=True)
    print()
    print(f"{'workload':12} {'metric':12} {'n':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'iqr/med':>8} {'bound':>6}")
    for w in names:
        for m, vs in values[w].items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds.get(m, float("inf")):
                flag = "  <-- above bound"
                bad += 1
            print(f"{w:12} {m:12} {len(vs):3d} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:8.4f} {bounds.get(m, 0):6.3f}{flag}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    rc = build()
    if rc != 0:
        print("run.py: build failed", file=sys.stderr)
        return rc or 1
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        ap.error("--workload is required")
    rc, _ = run_once(args.workload, args.seed, args.seconds or load_spec()["run_seconds"],
                     args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
