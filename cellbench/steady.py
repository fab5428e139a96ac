#!/usr/bin/env python3
"""Steadiness self-check for cellbench.

Runs every workload of BENCHMARK.json several times, each with another
seed, and prints the median and quartiles of each end-to-end metric with
its spread (interquartile distance over the median). A metric whose
spread exceeds its bound is flagged. Then one traced run per workload
gives the tracing overhead (traced end-to-end numbers over the untraced
medians) and checks that every per-layer metric is printed. Without
`--workload`, the workloads left out of BENCHMARK.json (UNGATED) then
get one traced run each, so their checks cannot break unnoticed.

Exits non-zero if any run fails, answers wrongly, or a spread exceeds
its bound. `--runs 1` is the one command that runs every workload once.

    python3 cellbench/steady.py [--runs 10] [--seed 1] [--workload NAME]...
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Runnable workloads that BENCHMARK.json does not gate (see README.md).
UNGATED = ["live-incidents"]


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result, e2e, ref = None, None, None
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    for line in lines:
        if line.startswith("cellbench e2e-json "):
            e2e = json.loads(line[len("cellbench e2e-json "):])
        if line.startswith("cellbench host:") and "reference_loop_ms=" in line:
            ref = float(line.split("reference_loop_ms=")[1].split()[0])
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        return None, None, None
    return result, e2e, ref


def traced_run(bench, workload, seed, seconds):
    """One traced run: checks its answers and that every per-layer
    metric is printed; returns its end-to-end numbers, or None."""
    result, e2e, _ = run_once(bench, workload, seed, seconds, True)
    if result is None:
        print(f"{workload} traced run: FAILED")
        return None
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in result["metrics"]]
    if missing:
        print(f"{workload} traced run lacks {missing}")
        return None
    print(f"{workload} traced run seed {seed}: ok, every per-layer metric printed")
    return e2e or {}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values, refs = {}, []
        for i in range(args.runs):
            seed = args.seed + i
            result, _, ref = run_once(bench, workload, seed, seconds, False)
            if result is None:
                print(f"{workload} seed {seed}: FAILED")
                bad = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if ref is not None:
                refs.append(ref)
            ratio = result["failed"] / result["attempted"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: ok, op_error_ratio {ratio:.6f} {shown}")
        medians = {}
        for metric in bench["end_to_end"]:
            name, vals = metric["name"], values.get(metric["name"], [])
            if not vals:
                print(f"  {name}: missing")
                bad = True
                continue
            if len(vals) < 2:
                medians[name] = vals[0]
                print(f"  {name:22} {vals[0]:12.4f} {metric['unit']}")
                continue
            q1, q2, q3, s = spread(vals)
            medians[name] = q2
            flag = ""
            if s > metric["bound"]:
                flag, bad = "  SPREAD OVER BOUND", True
            elif s > metric["bound"] / 3:
                flag = "  (over a third of the bound)"
            print(f"  {name:22} median {q2:12.4f} {metric['unit']:5} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {s:.4f} bound {metric['bound']}{flag}")
        if len(refs) >= 2:
            q1, q2, q3, s = spread(refs)
            print(f"  {'host reference loop':22} median {q2:12.4f} ms    "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {s:.4f} (the host's own noise)")
        e2e = traced_run(bench, workload, args.seed, seconds)
        if e2e is None:
            bad = True
            continue
        for name, m in e2e.items():
            if name in medians and medians[name]:
                print(f"  tracing overhead {name:22} {m['value'] / medians[name] - 1:+.2%}")
    for workload in [] if args.workload else UNGATED:
        if traced_run(bench, workload, args.seed, seconds) is None:
            bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
