#!/usr/bin/env python3
"""Steadiness check for the polymem benchmark.

Runs every workload of BENCHMARK.json several times, each with another
--seed, and prints the median and quartiles of every end-to-end metric
with its spread: the distance between the first and third quartile as a
share of the median. A spread above a third of the metric's bound is
flagged, and one above the bound fails the check (setup_s excepted), as
does a wrong output or a failed operation.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workload NAME]...

Run it from the repository root. The exit code is 0 when every spread
is within its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for i in range(args.runs):
            res = run_once(bench, workload, args.seed0 + i, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                ok = False
            failed += res["failed"]
            attempted += res["attempted"]
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} operations failed")
        for m in metrics:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"{m['unit']:7} spread {spread:.4f} (bound {m['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
