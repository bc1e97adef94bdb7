"""The one entry point of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        [--seconds <s>] [--trace 0|1] [--quick] [--append-history]

Prints every metric by name with its unit, the ops attempted and failed,
and as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric of ``BENCHMARK.json``
(``--trace 0``) or every per-layer metric (``--trace 1``).  Exits non-zero
when a correctness check fails.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from measure import Tracer  # noqa: E402  (imports the program)

SETUPS = 3  # set up, tear down, set up again: setup_s is the median


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def make_workload(name: str, cfg: dict, seed: int, workdir: str, tracer: Tracer):
    if name.startswith("read_"):
        from reads import ReadWorkload
        return ReadWorkload(name, cfg, seed, workdir, tracer)
    if name == "churn_rollout":
        from churn import ChurnWorkload
        return ChurnWorkload(cfg, seed, workdir, tracer)
    from construct import ConstructWorkload
    return ConstructWorkload(cfg, seed, workdir, tracer)


async def drive(wl, args, tracer: Tracer) -> dict:
    started = time.perf_counter()
    wl.generate()
    out = {"gen_s": time.perf_counter() - started, "setups": []}
    try:
        for k in range(SETUPS):
            if k:
                await wl.teardown()
                gc.collect()  # the torn-down set-up's memory is not this one's
            started = time.perf_counter()
            await wl.setup()
            out["setups"].append(time.perf_counter() - started)
        out["setup_s"] = statistics.median(out["setups"])
        wl.prepare_checks()
        # Everything allocated so far is long-lived: keep the cyclic GC from
        # re-walking it in the middle of a timed slice.
        gc.collect()
        gc.freeze()
        tracer.enabled = False
        out["untraced"] = await wl.timed(args.seconds, traced=False)
        if args.trace:
            tracer.enabled = True
            out["traced"] = await wl.timed(args.seconds, traced=True)
            out["layers"] = await wl.layers(out["untraced"], out["traced"])
        out["quality"] = await wl.finish()
    finally:
        await wl.teardown()
    out["peak_rss_mb"] = wl.peak_rss_mb()
    return out


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        )
        return done.stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def report(args, out: dict, wl, metrics: dict, units: dict) -> None:
    phase = out["untraced"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'quick ' if args.quick else ''}trace {args.trace}")
    print(f"  timed phase {phase['phase_s']:.2f} s, {phase['slices']} slices, "
          f"{phase['samples']} timed ops; "
          f"set-ups {', '.join(f'{s:.3f}' for s in out['setups'])} s; "
          f"input generation {out['gen_s']:.3f} s")
    print(f"  over the whole phase, quiet or not: {phase['phase_owners_per_s']:.1f} owners/s, "
          f"op median {phase['phase_op_p50_ms']:.4f} ms (not the metrics: README, Quiet windows)")
    print(f"  ops_attempted {wl.attempted}  ops_failed {wl.failed}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {units[name]}")
    for line in out.get("layers", {}).get("notes", []):
        print(f"  {line}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale (selftest); numbers are not comparable")
    parser.add_argument("--append-history", action="store_true",
                        help="append this run's end-to-end metrics to history.jsonl")
    args = parser.parse_args(argv)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    tracer = Tracer(enabled=bool(args.trace))
    wl = make_workload(
        args.workload, workloads.config(args.workload, args.quick),
        args.seed, workdir, tracer,
    )
    try:
        out = asyncio.run(drive(wl, args, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        layers = out["layers"]
        layers["harness.gen_s"] = out["gen_s"]
        table = spec["per_layer"]
        # A layer this workload does not run spent no time and moved no bytes.
        metrics = {m["name"]: float(layers.get(m["name"], 0.0)) for m in table}
        unknown = set(layers) - set(metrics) - {"notes"}
        assert not unknown, f"layer metrics missing from BENCHMARK.json: {unknown}"
        trace_path = os.path.join(HERE, "results", f"trace_{args.workload}.json")
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
    else:
        table = spec["end_to_end"]
        phase = out["untraced"]
        metrics = {
            "setup_s": out["setup_s"],
            "owners_per_s": phase["owners_per_s"],
            "op_p50_ms": phase["op_p50_ms"],
            "bytes_per_owner": phase["bytes_per_owner"],
            "peak_rss_mb": out["peak_rss_mb"],
            **out["quality"],
        }
        metrics = {m["name"]: float(metrics[m["name"]]) for m in table}
    units = {m["name"]: m["unit"] for m in table}
    report(args, out, wl, metrics, units)

    if args.append_history and not args.trace:
        with open(os.path.join(HERE, "history.jsonl"), "a") as f:
            f.write(json.dumps({
                "commit": git_commit(), "workload": args.workload, "seed": args.seed,
                "quick": args.quick, "seconds": args.seconds,
                "nproc": os.cpu_count(), "metrics": metrics,
            }) + "\n")

    correct = wl.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
