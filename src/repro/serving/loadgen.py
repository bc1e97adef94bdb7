"""Closed-loop load generator for the serving runtime.

``n_workers`` concurrent workers each issue their next request only after
the previous one completed (closed-loop), which is the standard way to
probe a service's throughput/latency envelope without open-loop overload
artifacts.  Per-request wall-clock latencies feed a percentile report
(p50/p95/p99), plus QPS and error rate -- the wall-clock counterpart of
:func:`repro.service.run_concurrent_searchers`, which runs the same client
and servers on the virtual-clock loop of :mod:`repro.net.virtual`;
``benchmarks/bench_serving_throughput.py`` compares the two.

Traffic shape is uniform round-robin by default; ``zipf_a > 0`` switches to
Zipf-distributed hot keys (rank ``i`` of ``owner_ids`` drawn with weight
``1/(i+1)**zipf_a``), seeded per ``(seed, worker)`` so a skewed run is
exactly reproducible -- the access pattern replica caches and the
replication bench care about.

``shape`` modulates the *arrival rate* on top of the key distribution:
``"diurnal"`` scales each worker's inter-request pause by a sine over the
request index (a compressed day/night cycle), ``"burst"`` fires the first
quarter of every period back-to-back and doubles the pause in the lull (a
flash crowd followed by quiet).  Both are deterministic in ``(seed,
worker)`` -- each worker gets a seeded phase offset, so shaped runs replay
exactly like uniform ones.

When a ``tier_of`` owner->tier map is supplied, per-request latencies are
additionally bucketed by the tier of the owner served, giving the per-ε-tier
SLO breakdown (``LoadReport.tier_latency_percentiles_ms``) that the
personalized-privacy story needs: strict-ε owners carry more decoys, and
their latency budget must be observable separately.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.serving.client import LocatorClient, RetryPolicy, TransportError
from repro.serving.metrics import percentile
from repro.serving.protocol import RemoteError

__all__ = [
    "LoadReport",
    "TRAFFIC_SHAPES",
    "run_load",
    "run_load_multiprocess",
    "run_load_sync",
    "shape_pause_s",
]

TRAFFIC_SHAPES = ("uniform", "diurnal", "burst")

#: burst shape: fraction of each period fired back-to-back
_BURST_DUTY = 0.25


def shape_pause_s(
    shape: str, k: int, think_time_s: float, period: int, phase: int = 0
) -> float:
    """Inter-request pause for request ``k`` of a shaped schedule.

    ``"uniform"`` is the flat closed-loop pause.  ``"diurnal"`` scales it by
    ``1 + sin(2π (k + phase) / period)`` -- arrival rate swings through a
    full day/night cycle every ``period`` requests.  ``"burst"`` fires the
    first ``_BURST_DUTY`` of each period with no pause at all and doubles
    the pause for the rest.  Pure function of its arguments, so schedules
    replay exactly.
    """
    if shape == "uniform":
        return think_time_s
    pos = (k + phase) % period
    if shape == "diurnal":
        return think_time_s * (1.0 + math.sin(2.0 * math.pi * pos / period))
    if shape == "burst":
        return 0.0 if pos < period * _BURST_DUTY else 2.0 * think_time_s
    raise ValueError(
        f"shape must be one of {TRAFFIC_SHAPES}, got {shape!r}"
    )


@dataclass
class LoadReport:
    """Aggregate of one load-generation session."""

    mode: str
    n_workers: int
    total: int = 0
    errors: int = 0
    duration_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    #: populated in ``search`` mode: recall-relevant tallies
    records_found: int = 0
    providers_contacted: int = 0
    providers_failed: int = 0
    #: optional post-run ``stats`` snapshot from the server under test
    server_stats: Optional[dict] = None
    #: populated when ``run_load`` is given a ``tier_of`` map: per-tier
    #: latency samples for the per-ε-tier SLO breakdown
    tier_latencies_s: dict = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.total / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.total if self.total else 0.0

    def latency_percentiles_ms(self) -> dict[str, float]:
        ordered = sorted(self.latencies_s)
        return {
            f"p{q:g}": percentile(ordered, q) * 1e3 for q in (50.0, 95.0, 99.0)
        }

    def tier_latency_percentiles_ms(self) -> dict[str, dict[str, float]]:
        """Percentiles keyed by owner tier (empty without a tier map)."""
        out: dict[str, dict[str, float]] = {}
        for tier in sorted(self.tier_latencies_s):
            ordered = sorted(self.tier_latencies_s[tier])
            out[tier] = {
                f"p{q:g}": percentile(ordered, q) * 1e3
                for q in (50.0, 95.0, 99.0)
            }
            out[tier]["requests"] = float(len(ordered))
        return out

    def format(self) -> str:
        pct = self.latency_percentiles_ms()
        lines = [
            f"mode           {self.mode}",
            f"workers        {self.n_workers}",
            f"requests       {self.total}",
            f"errors         {self.errors} ({self.error_rate:.2%})",
            f"duration       {self.duration_s:.3f} s",
            f"throughput     {self.qps:.1f} req/s",
            f"latency p50    {pct['p50']:.2f} ms",
            f"latency p95    {pct['p95']:.2f} ms",
            f"latency p99    {pct['p99']:.2f} ms",
        ]
        if self.mode == "search":
            lines += [
                f"records        {self.records_found}",
                f"contacted      {self.providers_contacted}",
                f"failed         {self.providers_failed}",
            ]
        for tier, tier_pct in self.tier_latency_percentiles_ms().items():
            lines.append(
                f"tier {tier:<10} n={int(tier_pct['requests'])} "
                f"p50 {tier_pct['p50']:.2f} ms  p95 {tier_pct['p95']:.2f} ms  "
                f"p99 {tier_pct['p99']:.2f} ms"
            )
        return "\n".join(lines)


async def run_load(
    client: LocatorClient,
    owner_ids: list[int],
    n_workers: int = 4,
    requests_per_worker: int = 50,
    mode: str = "query",
    think_time_s: float = 0.0,
    batch_size: int = 32,
    zipf_a: float = 0.0,
    seed: int = 0,
    shape: str = "uniform",
    shape_period: int = 32,
    tier_of: Optional[Mapping[int, str]] = None,
) -> LoadReport:
    """Drive ``n_workers`` closed-loop workers through ``owner_ids``.

    Worker ``w`` issues requests for owners ``owner_ids[(w + k*n_workers) %
    len(owner_ids)]`` -- a deterministic round-robin so runs are
    reproducible.  ``zipf_a > 0`` replaces the round-robin with Zipf-skewed
    draws over the same id list (rank ``i`` weighted ``1/(i+1)**zipf_a``,
    so the *front* of ``owner_ids`` is hot); each worker pre-draws its
    whole schedule from ``default_rng((seed, w))``, keeping skewed runs as
    reproducible as uniform ones.  ``mode`` is ``"query"`` (phase 1 only),
    ``"batch"`` (``query_batch`` of ``batch_size`` owners per round trip;
    ``total`` counts owners resolved, not round trips) or ``"search"``
    (full two-phase; requires the client to know provider addresses).

    ``shape`` modulates arrival rate via :func:`shape_pause_s`; shaped runs
    need ``think_time_s > 0`` (there is no pause to modulate otherwise) and
    each worker's phase offset is drawn from ``default_rng((seed, w, 1))``,
    so the whole shaped schedule is a pure function of ``seed``.  A
    ``tier_of`` owner->tier map buckets latencies per tier (batch-mode
    samples count once per distinct tier in the chunk).
    """
    if mode not in ("query", "batch", "search"):
        raise ValueError(f"mode must be 'query', 'batch' or 'search', got {mode!r}")
    if not owner_ids:
        raise ValueError("need at least one owner id")
    if n_workers < 1 or requests_per_worker < 1:
        raise ValueError("n_workers and requests_per_worker must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if zipf_a < 0:
        raise ValueError(f"zipf_a must be >= 0 (0 disables skew), got {zipf_a}")
    if shape not in TRAFFIC_SHAPES:
        raise ValueError(f"shape must be one of {TRAFFIC_SHAPES}, got {shape!r}")
    if shape != "uniform" and think_time_s <= 0:
        raise ValueError(f"shape {shape!r} needs think_time_s > 0 to modulate")
    if shape_period < 2:
        raise ValueError(f"shape_period must be >= 2, got {shape_period}")

    report = LoadReport(mode=mode, n_workers=n_workers)
    phases = [
        int(np.random.default_rng((seed, w, 1)).integers(0, shape_period))
        for w in range(n_workers)
    ]

    def note_tier(owners, latency_s: float) -> None:
        if tier_of is None:
            return
        tiers = {tier_of[o] for o in owners if o in tier_of}
        for tier in tiers:
            report.tier_latencies_s.setdefault(tier, []).append(latency_s)

    # Batch chunks are rotations of the owner cycle; slicing a tiled copy
    # replaces batch_size modulo operations per request with one C slice.
    n_owners = len(owner_ids)
    tiled = owner_ids * (batch_size // n_owners + 2) if mode == "batch" else []

    schedules: list = []
    if zipf_a > 0:
        weights = (1.0 / np.arange(1, n_owners + 1) ** zipf_a)
        probs = weights / weights.sum()
        per_worker = requests_per_worker * (batch_size if mode == "batch" else 1)
        schedules = [
            np.random.default_rng((seed, w)).choice(
                n_owners, size=per_worker, p=probs
            )
            for w in range(n_workers)
        ]

    async def worker(w: int) -> None:
        for k in range(requests_per_worker):
            started = time.monotonic()
            n_done = 1
            served: list = []
            try:
                if mode == "query":
                    if schedules:
                        owner = owner_ids[schedules[w][k]]
                    else:
                        owner = owner_ids[(w + k * n_workers) % n_owners]
                    served = [owner]
                    await client.query(owner)
                elif mode == "batch":
                    if schedules:
                        idx = schedules[w][k * batch_size : (k + 1) * batch_size]
                        chunk = [owner_ids[i] for i in idx]
                    else:
                        start = (w + k * n_workers) * batch_size % n_owners
                        chunk = tiled[start : start + batch_size]
                    n_done = len(chunk)
                    served = chunk
                    await client.query_batch(chunk)
                else:
                    if schedules:
                        owner = owner_ids[schedules[w][k]]
                    else:
                        owner = owner_ids[(w + k * n_workers) % len(owner_ids)]
                    served = [owner]
                    result = await client.search(owner)
                    report.records_found += len(result.records)
                    report.providers_contacted += result.contacted
                    report.providers_failed += len(result.failed_providers)
            except (TransportError, RemoteError):
                report.errors += 1
            latency_s = time.monotonic() - started
            report.latencies_s.append(latency_s)
            note_tier(served, latency_s)
            report.total += n_done
            pause = shape_pause_s(shape, k, think_time_s, shape_period, phases[w])
            if pause > 0:
                await asyncio.sleep(pause)

    started = time.monotonic()
    await asyncio.gather(*(worker(w) for w in range(n_workers)))
    report.duration_s = time.monotonic() - started
    return report


def run_load_sync(
    client_factory,
    owner_ids: list[int],
    n_workers: int = 4,
    requests_per_worker: int = 50,
    mode: str = "query",
    think_time_s: float = 0.0,
    batch_size: int = 32,
    report_stats_from: Optional[tuple] = None,
    zipf_a: float = 0.0,
    seed: int = 0,
    shape: str = "uniform",
    shape_period: int = 32,
    tier_of: Optional[Mapping[int, str]] = None,
) -> LoadReport:
    """Synchronous wrapper: build a client, run the load, tear down.

    ``client_factory`` is a zero-argument callable returning a
    :class:`LocatorClient` (construction must happen inside the event
    loop).  If ``report_stats_from`` is an address, the server's ``stats``
    snapshot is fetched after the run and attached as ``report.server_stats``.
    """

    async def _main() -> LoadReport:
        client = client_factory()
        try:
            report = await run_load(
                client,
                owner_ids,
                n_workers=n_workers,
                requests_per_worker=requests_per_worker,
                mode=mode,
                think_time_s=think_time_s,
                batch_size=batch_size,
                zipf_a=zipf_a,
                seed=seed,
                shape=shape,
                shape_period=shape_period,
                tier_of=tier_of,
            )
            if report_stats_from is not None:
                report.server_stats = await client.stats(report_stats_from)
            return report
        finally:
            await client.close()

    return asyncio.run(_main())


def _load_proc_main(payload: dict, barrier, queue) -> None:
    """One load-generator process: own event loop, own client, own sockets.

    Top-level so it pickles under ``spawn``/``forkserver`` contexts.  The
    barrier synchronizes the fleet of generators *after* interpreter/module
    start-up, so the parent's wall clock measures serving throughput, not
    process boot.
    """
    barrier.wait(timeout=60.0)

    async def _main() -> dict:
        client = LocatorClient(
            servers=[tuple(a) for a in payload["servers"]],
            providers={int(k): tuple(v) for k, v in payload["providers"].items()},
            name=payload["name"],
            retry=payload["retry"],
            cache_size=payload["cache_size"],
            rng_seed=payload["seed"],
        )
        try:
            report = await run_load(
                client,
                payload["owner_ids"],
                n_workers=payload["n_workers"],
                requests_per_worker=payload["requests_per_worker"],
                mode=payload["mode"],
                think_time_s=payload["think_time_s"],
                batch_size=payload.get("batch_size", 32),
                zipf_a=payload.get("zipf_a", 0.0),
                seed=payload.get("zipf_seed", 0),
                shape=payload.get("shape", "uniform"),
                shape_period=payload.get("shape_period", 32),
                tier_of=payload.get("tier_of"),
            )
        finally:
            await client.close()
        return {
            "total": report.total,
            "errors": report.errors,
            "latencies_s": report.latencies_s,
            "records_found": report.records_found,
            "providers_contacted": report.providers_contacted,
            "providers_failed": report.providers_failed,
            "tier_latencies_s": report.tier_latencies_s,
        }

    queue.put(asyncio.run(_main()))


def run_load_multiprocess(
    servers: list,
    owner_ids: list[int],
    n_procs: int = 2,
    n_workers: int = 4,
    requests_per_worker: int = 50,
    mode: str = "query",
    providers: Optional[dict] = None,
    retry: RetryPolicy = RetryPolicy(),
    cache_size: int = 0,
    think_time_s: float = 0.0,
    batch_size: int = 32,
    mp_start_method: Optional[str] = None,
    join_timeout_s: float = 300.0,
    zipf_a: float = 0.0,
    seed: int = 0,
    shape: str = "uniform",
    shape_period: int = 32,
    tier_of: Optional[Mapping[int, str]] = None,
) -> LoadReport:
    """Closed-loop load from ``n_procs`` OS processes (own loops, own GILs).

    A single load-generating event loop saturates one core and therefore
    *under-reports* a multi-process server fleet -- the client becomes the
    bottleneck.  This driver spawns ``n_procs`` generator processes (each
    running :func:`run_load` with ``n_workers`` closed-loop workers) and
    merges their reports; ``duration_s`` is the parent's wall clock over
    the whole fan-out, so ``qps`` is honest fleet throughput.  Process
    ``p`` draws owners ``owner_ids[p::n_procs]``, keeping runs
    deterministic and the shard mix balanced.
    """
    if n_procs < 1:
        raise ValueError("n_procs must be >= 1")
    if mp_start_method is None:
        available = multiprocessing.get_all_start_methods()
        mp_start_method = "forkserver" if "forkserver" in available else "spawn"
    ctx = multiprocessing.get_context(mp_start_method)
    if mp_start_method == "forkserver":
        # Pay the heavy imports once in the fork server, not per generator.
        ctx.set_forkserver_preload(["repro.serving.loadgen"])
    queue = ctx.Queue()
    barrier = ctx.Barrier(n_procs + 1)
    procs = []
    for p in range(n_procs):
        slice_ids = owner_ids[p::n_procs] or owner_ids
        payload = {
            "servers": [tuple(a) for a in servers],
            "providers": dict(providers or {}),
            "name": f"loadgen-{p}",
            "retry": retry,
            "cache_size": cache_size,
            "seed": p,
            "owner_ids": slice_ids,
            "n_workers": n_workers,
            "requests_per_worker": requests_per_worker,
            "mode": mode,
            "think_time_s": think_time_s,
            "batch_size": batch_size,
            "zipf_a": zipf_a,
            # Distinct per-process seeds: worker streams are keyed
            # (seed, w), so shifting the seed by p de-correlates processes
            # while keeping the whole fan-out a pure function of ``seed``.
            "zipf_seed": seed + p,
            "shape": shape,
            "shape_period": shape_period,
            "tier_of": dict(tier_of) if tier_of else None,
        }
        proc = ctx.Process(
            target=_load_proc_main, args=(payload, barrier, queue), daemon=True
        )
        procs.append(proc)

    report = LoadReport(mode=mode, n_workers=n_procs * n_workers)
    for proc in procs:
        proc.start()
    results = []
    try:
        barrier.wait(timeout=60.0)  # every generator is up; start the clock
        started = time.monotonic()
        for _ in procs:
            results.append(queue.get(timeout=join_timeout_s))
        report.duration_s = time.monotonic() - started
    finally:
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
    for result in results:
        report.total += result["total"]
        report.errors += result["errors"]
        report.latencies_s.extend(result["latencies_s"])
        report.records_found += result["records_found"]
        report.providers_contacted += result["providers_contacted"]
        report.providers_failed += result["providers_failed"]
        for tier, samples in result.get("tier_latencies_s", {}).items():
            report.tier_latencies_s.setdefault(tier, []).extend(samples)
    return report
