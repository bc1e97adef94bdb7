"""Self-test of the benchmark harness, on the ``--quick`` tiny-scale path.

    python3 benchmarks/e2e/selftest.py

Checks, in under a minute:

* every workload runs end to end at quick scale with ``ops_failed == 0``;
* the exact metrics (``bytes_per_owner``, ``search_overhead``,
  ``privacy_success_ratio``, and under ``--trace 1`` the refresh counts and
  the slab hit ratio) are bit-identical across two runs with one seed, and
  the end-to-end ones differ between two seeds;
* a deliberately wrong answer, injected by a client double, is counted in
  ``ops_failed`` and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from measure import Tracer  # noqa: E402
from reads import ReadWorkload  # noqa: E402
from repro.serving.client import LocatorClient  # noqa: E402

EXACT = ("bytes_per_owner", "search_overhead", "privacy_success_ratio")
EXACT_LAYERS = {
    "read_point": ("serving.server.slab_hit_ratio", "serving.wire.resp_bytes_per_op"),
    "read_batch_cold": ("serving.server.slab_hit_ratio", "serving.wire.resp_bytes_per_op"),
    "churn_rollout": (
        "updates.refresh.dirty", "updates.refresh.closure", "updates.refresh.republished",
    ),
}
SECONDS = "0.3"


def quick_run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    assert result["attempted"] >= 1
    return {name: m["value"] for name, m in result["metrics"].items()}


class LyingClient(LocatorClient):
    """Drops one provider from its thousandth answer (past the warm-up)."""

    calls = 0

    async def query(self, owner_id: int) -> list[int]:
        answer = await super().query(owner_id)
        LyingClient.calls += 1
        if LyingClient.calls == 1000 and answer:
            return answer[:-1]
        return answer


def injected_failure_is_counted() -> None:
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, ".work"))
    tracer = Tracer(enabled=False)
    wl = ReadWorkload(
        "read_point", workloads.config("read_point", quick=True), 7, workdir, tracer,
        client_factory=LyingClient,
    )
    args = argparse.Namespace(
        workload="read_point", seed=7, seconds=float(SECONDS), trace=0, quick=True,
    )
    try:
        asyncio.run(run.drive(wl, args, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert LyingClient.calls >= 1000, "the double never got to lie"
    assert wl.failed == 1, f"one wrong answer, {wl.failed} ops counted as failed"


def main() -> int:
    started = time.time()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    jobs = []
    for workload in workloads.WORKLOADS:
        jobs += [(workload, 7, 0), (workload, 7, 0), (workload, 8, 0), (workload, 7, 1)]
        if workload in EXACT_LAYERS:
            jobs.append((workload, 7, 1))
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: quick_run(*job), jobs))
    by_job: dict[tuple, list[dict]] = {}
    for job, metrics in zip(jobs, results):
        by_job.setdefault(job, []).append(metrics)
    for workload in workloads.WORKLOADS:
        first, second = by_job[(workload, 7, 0)]
        (other,) = by_job[(workload, 8, 0)]
        for name in EXACT:
            assert first[name] == second[name], (workload, name, first[name], second[name])
        assert any(first[name] != other[name] for name in EXACT), (
            f"{workload}: exact metrics do not depend on the seed"
        )
        if workload in EXACT_LAYERS:
            first, second = by_job[(workload, 7, 1)]
            for name in EXACT_LAYERS[workload]:
                assert first[name] == second[name], (workload, name, first[name], second[name])
        print(f"ok  {workload}: exact metrics repeat for one seed, differ across seeds")
    hit = {w: by_job[(w, 7, 1)][0]["serving.server.slab_hit_ratio"]
           for w in ("read_point", "read_batch_cold")}
    assert hit == {"read_point": 1.0, "read_batch_cold": 0.0}, hit
    assert by_job[("construct", 7, 1)][0]["mpc.model_bytes_ratio"] == 1.0
    print("ok  slab hit ratio 1.0 / 0.0, mpc.model_bytes_ratio 1.0")
    injected_failure_is_counted()
    print("ok  an injected wrong answer is counted in ops_failed")
    print(f"selftest passed in {time.time() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
