"""Run the suite as interleaved sets and check it repeats within its own bounds.

    python3 benchmarks/e2e/calibrate.py --sets 2 --runs 5 [--out results/calibration.json]

Every set runs every workload ``--runs`` times for ``run_seconds`` of
``BENCHMARK.json``, run ``i`` of every set with seed ``i + 1`` (so the exact
metrics of two sets must agree to the last digit), and the sets are
interleaved run by run so drift in the machine hits them alike.  Per
``<workload>/<metric>`` it prints each set's median and quartiles, the spread
(interquartile distance over median, across the seeds of a set: what the
acceptance check computes) and the relative difference of the set medians.
It exits non-zero if a difference exceeds half the metric's bound, or a
spread exceeds the bound.  The spread of ``setup_s`` is printed and recorded
but, as in the acceptance check, not failed on: it is the median of three
set-ups a run, and this host's noise spreads it 6-32 % (README, *Bounds*).
Its bound guards its median, through the difference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=None, help="write the table as JSON here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    started = time.time()
    samples = {w: [dict() for _ in range(args.sets)] for w in names}
    for run in range(args.runs):
        for workload in names:
            for s in range(args.sets):
                metrics = run_once(workload, run + 1, seconds)
                for name, value in metrics.items():
                    samples[workload][s].setdefault(name, []).append(value)
                print(f"run {run} set {s} {workload}: " + "  ".join(
                    f"{n}={v:.6g}" for n, v in metrics.items()), flush=True)

    table, failures = {}, []
    for workload in names:
        for name, meta in bounds.items():
            sets = [summarize(samples[workload][s][name]) for s in range(args.sets)]
            medians = [s["median"] for s in sets]
            difference = (max(medians) - min(medians)) / (
                min(medians) if meta["better"] == "lower" else max(medians)
            )
            key = f"{workload}/{name}"
            table[key] = {
                "unit": meta["unit"], "bound": meta["bound"], "sets": sets,
                "difference": difference, "values": [
                    samples[workload][s][name] for s in range(args.sets)
                ],
            }
            spread = max(s["spread"] for s in sets)
            flag = ""
            if name != "setup_s" and spread > meta["bound"]:
                failures.append(f"{key}: spread {spread:.4f} > bound {meta['bound']}")
                flag = "  SPREAD"
            if difference > meta["bound"] / 2:
                failures.append(
                    f"{key}: set medians differ {difference:.4f} > half the bound "
                    f"{meta['bound']}"
                )
                flag += "  DIFFERENCE"
            print(f"{key:<40} " + "  ".join(
                f"median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                f"spread {s['spread']:.4f}" for s in sets
            ) + f"  diff {difference:.4f}  bound {meta['bound']}{flag}")
    elapsed = time.time() - started
    print(f"{args.sets} sets x {args.runs} runs x {len(names)} workloads in {elapsed:.0f} s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "sets": args.sets, "runs": args.runs, "seconds": seconds,
                "nproc": os.cpu_count(), "elapsed_s": round(elapsed),
                "failures": failures, "table": table,
            }, f, indent=1)
            f.write("\n")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
