"""``churn_rollout``: writes beside reads.  One publish cycle is

    DeltaLog appends + sync -> seal_segment -> (archive) -> Compactor.run_once
    -> BetaRefresher.refresh (incremental MPC) -> land the changed betas as a
    second segment + compaction -> ``reload`` on the live server, foreground
    reads running -> first read at the new epoch -> ReplicaApplier.sync_once
    until the follower snapshot is byte-identical to the leader's.

The leader pipeline, the streamer and the follower run in this process
(they are library calls); the server that is reloaded is a subprocess.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import time

import numpy as np

import inputs
from measure import (
    CountingPool, ServerProcess, Tracer, median, median_ms, median_us,
    own_peak_rss_mb, p99, quiet_median,
)
from repro.core.policies import ChernoffPolicy
from repro.core.postings import PostingsIndex
from repro.core.privacy import success_ratio
from repro.core.publication import false_positive_rates, publish_provider_row
from repro.mpc.betacalc import secure_beta_calculation
from repro.replication import ReplicaApplier, SegmentStreamer
from repro.replication import applier as applier_module
from repro.serving.client import LocatorClient, RetryPolicy, TransportError
from repro.serving.protocol import VERB_RELOAD, RemoteError
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_epoch
from repro.updates import (
    BetaRefresher, Compactor, DeltaLog, compact_snapshot, seal_segment,
)
from repro.updates import compactor as compactor_module
from repro.updates import segments as segments_module
from workloads import COORDINATORS, GAMMA, MIN_OPS, QUIET_OPS

RETRY = RetryPolicy(max_retries=0, timeout_s=30.0)
NOISE_KEY = b"e2e-churn-sticky"


def file_sha256(path: str) -> bytes:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).digest()


class ChurnWorkload:
    def __init__(self, cfg: dict, seed: int, workdir: str, tracer: Tracer):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.server = None
        self.clients: list = []
        self.streamer = None
        self.applier = None
        self.attempted = 0
        self.failed = 0
        self.setups = 0
        self.cycle_no = 0
        self.segment_no = 0
        self.prefix = None  # exact-count totals, frozen after ``exact_cycles``

    # -- inputs ------------------------------------------------------------------

    def generate(self) -> None:
        cfg = self.cfg
        self.data = inputs.make_dataset(cfg["owners"], cfg["providers"], self.seed)
        # The MPC entry points take ``provider_bits`` as lists of ints.
        self.initial_bits = self.data.truth.tolist()
        self.epsilons = self.data.epsilons.tolist()

    # -- set-up ------------------------------------------------------------------

    async def setup(self) -> None:
        data, tr = self.data, self.tracer
        # Set-up runs more than once: the refresher folds churn into its
        # ``provider_bits`` in place, the schedule into its truth.
        self.bits = [row[:] for row in self.initial_bits]
        self.schedule = inputs.ChurnSchedule(data, self.cfg["churn_owners"], self.seed)
        self.setups += 1
        wd = os.path.join(self.workdir, f"setup-{self.setups}")
        os.makedirs(wd)
        with tr.span("mpc.betacalc.initial"):
            held = secure_beta_calculation(
                self.bits, self.epsilons, ChernoffPolicy(GAMMA), COORDINATORS,
                random.Random(self.seed), engine="batch", keep_state=True,
            )
        coins = np.random.default_rng([self.seed, 6])
        with tr.span("core.publication.publish"):
            rows = [publish_provider_row(row, held.betas, coins) for row in data.truth]
        with tr.span("core.postings.build"):
            index = PostingsIndex.from_provider_rows(rows, data.n_owners)
        self.leader = os.path.join(wd, "leader.npz")
        self.follower = os.path.join(wd, "follower.npz")
        self.segment_dir = os.path.join(wd, "segments")
        os.makedirs(self.segment_dir)
        with tr.span("serving.snapshot.save"):
            save_snapshot(index, self.leader, format_version=3, epoch=0)
        shutil.copyfile(self.leader, self.follower)  # the one-time seed transfer
        self.server = ServerProcess(self.leader, wd, pinned=False)
        self.refresher = BetaRefresher(held.state, self.bits, drift_threshold=1e-9)
        self.compactor = Compactor(
            self.leader, self.segment_dir, on_compaction=self.refresher.observe
        )
        self.streamer = SegmentStreamer(
            self.leader, self.segment_dir, archive_dir=os.path.join(wd, "archive")
        )
        await self.streamer.start()
        self.applier = ReplicaApplier(
            self.streamer.address, self.follower,
            segment_dir=os.path.join(wd, "follower-segments"),
            compact_threshold=1, retry=RETRY,
        )
        self.server.wait_ready()
        for k in range(2):  # control (reload, first read at the new epoch), foreground
            client = LocatorClient(
                [self.server.address], retry=RETRY, cache_size=0,
                protocol="v2", rng_seed=k,
            )
            client.pool = CountingPool()
            self.clients.append(client)
        await self.applier.sync_once()
        for client in self.clients:
            for owner in range(16):
                await client.query(owner)

    def prepare_checks(self) -> None:
        self.indexes = {0: load_postings(self.leader, mmap=False)}
        self.epoch = 0

    # -- one publish cycle ---------------------------------------------------------

    def _land(self, log: DeltaLog, rec: dict, compact) -> None:
        """Seal ``log`` into the next segment, let the streamer archive it
        (before the compaction unlinks it), compact it onto the leader."""
        tr = self.tracer
        self.segment_no += 1
        segment = os.path.join(self.segment_dir, f"{self.segment_no:06d}.seg.npz")
        with tr.span("updates.segments.seal"):
            seal_segment(log, segment, base_epoch=snapshot_epoch(self.leader))
        log.close()
        rec["appends"] += len(log)
        rec["bytes_log"] += os.path.getsize(log.path)
        rec["bytes_segments"] += os.path.getsize(segment)
        os.unlink(log.path)
        with tr.span("replication.streamer.refresh"):
            self.streamer.refresh()
        with tr.span("updates.compactor.compact"):
            compact(segment)
        rec["bytes_snapshots"] += os.path.getsize(self.leader)

    async def _read(self, client, owners: list[int]) -> list[tuple]:
        """Sequential point reads: ``(owner, answer, epoch, seconds)`` each."""
        address = self.server.address
        reads = []
        for owner in owners:
            started = time.perf_counter()
            try:
                answer = await client.query(owner)
            except (TransportError, RemoteError, asyncio.TimeoutError) as exc:
                answer = exc
            reads.append((
                owner, answer, client.addr_epochs.get(address, -1),
                time.perf_counter() - started,
            ))
        return reads

    async def cycle(self, ops: list, reads: list[int]) -> dict:
        tr = self.tracer
        betas = self.refresher.state.betas
        m = self.data.n_providers
        rec = {"appends": 0, "bytes_log": 0, "bytes_segments": 0, "bytes_snapshots": 0}
        started = time.perf_counter()

        log = DeltaLog.create(
            os.path.join(self.segment_dir, f"cycle-{self.cycle_no}.dlt"),
            m, noise_key=NOISE_KEY,
        )
        with tr.span("updates.deltalog.append"):
            for op in ops:
                beta = float(betas[op.owner])
                if op.kind == "remove":
                    log.remove(op.owner)
                elif op.kind == "upsert":
                    log.upsert(op.owner, op.providers, beta)
                else:
                    # A flip edits the owner's *logged* truth, and each cycle
                    # opens a fresh log: the truth so far is enrolled first.
                    (p,) = op.providers
                    log.upsert(op.owner, op.before, beta)
                    if p in op.before:
                        log.flip(op.owner, clear_providers=[p])
                    else:
                        log.flip(op.owner, set_providers=[p])
        with tr.span("updates.deltalog.sync"):
            log.sync()
        with tr.span("updates.refresh.fold"):
            self.refresher.fold(log.state())
        self._land(log, rec, lambda segment: self.compactor.run_once())

        with tr.span("updates.refresh.refresh"):
            outcome = self.refresher.refresh(random.Random(self.seed * 100_003 + self.cycle_no))
        rec["dirty"] = len(outcome.dirty)
        rec["closure"] = len(outcome.closure)
        rec["republished"] = len(outcome.republished)
        rec["mpc_bytes"] = (
            outcome.result.count_result.stats.bits_sent
            + outcome.result.selection_result.stats.bits_sent
        ) / 8
        if outcome.republished:
            # What ``refresh_and_land`` does, step by step: it seals and
            # unlinks its segment inside one call, so a streamer could never
            # archive it and no follower could converge (see README).
            log = DeltaLog.create(
                os.path.join(self.segment_dir, f"refresh-{self.cycle_no}.dlt"),
                m, noise_key=NOISE_KEY,
            )
            with tr.span("updates.deltalog.append"):
                for j in outcome.republished:
                    truth = [i for i in range(m) if self.bits[i][j]]
                    log.upsert(j, truth, float(self.refresher.state.betas[j]))

            def compact(segment: str) -> None:
                compact_snapshot(self.leader, [segment])
                os.unlink(segment)

            self._land(log, rec, compact)
        epoch = snapshot_epoch(self.leader)

        # Rollout: reload the live server while the foreground reader asks.
        control, foreground = self.clients
        reader = asyncio.ensure_future(self._read(foreground, reads))
        with tr.span("serving.server.reload_rtt"):
            reload_started = time.perf_counter()
            try:
                await control.call(
                    self.server.address, VERB_RELOAD, snapshot=self.leader
                )
                reloaded = True
            except (TransportError, RemoteError):
                reloaded = False
            rec["reload_rtt"] = time.perf_counter() - reload_started
        with tr.span("serving.client.first_read"):
            (first,) = await self._read(control, reads[:1])
        with tr.span("serving.client.foreground_tail"):
            rec["reads"] = await reader

        fetched_before = self.applier.bytes_fetched
        with tr.span("replication.applier.catch_up"):
            for _ in range(4):
                await self.applier.sync_once(force_compact=True)
                if self.applier.epoch >= epoch:
                    break
        rec["bytes_fetched"] = self.applier.bytes_fetched - fetched_before
        with tr.span("harness.compare_sha256"):
            identical = file_sha256(self.leader) == file_sha256(self.follower)
        rec["wall"] = time.perf_counter() - started

        # -- checks, outside the timed window ---------------------------------
        self.cycle_no += 1
        index = load_postings(self.leader, mmap=False)
        self.indexes[epoch] = index
        ok = reloaded and identical and first[2] == epoch and self._read_ok(first)
        last_epoch = self.epoch
        rec["stale"] = rec["lost"] = 0
        for read in rec["reads"]:
            if isinstance(read[1], Exception):
                rec["lost"] += 1
            elif read[2] < last_epoch or not self._read_ok(read):
                rec["stale"] += 1
            else:
                last_epoch = read[2]
        touched = {op.owner for op in ops} | set(outcome.republished)
        for owner in touched:  # 100 % recall of the harness's truth
            truth = np.flatnonzero(self.schedule.truth[:, owner]).tolist()
            if not set(truth) <= set(index.query(owner)):
                ok = False
        self.attempted += 1 + len(rec["reads"])
        self.failed += (0 if ok else 1) + rec["stale"] + rec["lost"]
        for old in [e for e in self.indexes if e < epoch]:
            del self.indexes[old]
        self.epoch = epoch
        return rec

    def _read_ok(self, read: tuple) -> bool:
        """The answer is ``PostingsIndex.query`` on the snapshot of the epoch
        it was answered under (the one before the swap, or the one after)."""
        owner, answer, epoch, _ = read
        index = self.indexes.get(epoch)
        return index is not None and answer == index.query(owner)

    # -- the timed phase -----------------------------------------------------------

    async def timed(self, seconds: float, traced: bool) -> dict:
        cfg, tr = self.cfg, self.tracer
        if traced:
            tr.wrap(segments_module.StickyOwnerStream, "publish_row", "updates.noise.publish_row")
            tr.wrap(compactor_module, "save_snapshot", "serving.snapshot.save")
            tr.wrap(compactor_module, "load_postings", "serving.snapshot.load")
            tr.wrap(applier_module, "compact_snapshot", "replication.applier.fold")
        min_cycles = max(MIN_OPS, cfg["exact_cycles"])
        records: list[dict] = []
        busy = 0.0
        first_op = self.cycle_no
        try:
            while busy < seconds or len(records) < min_cycles:
                ops = self.schedule.next_cycle()
                reads = inputs.foreground_owners(
                    cfg["owners"], cfg["foreground_reads"], self.seed, self.cycle_no
                )
                tr.begin_op(self.cycle_no)
                with tr.span("op"):
                    rec = await self.cycle(ops, reads)
                records.append(rec)
                busy += rec["wall"]
                if self.prefix is None and len(records) == cfg["exact_cycles"]:
                    self.prefix = self._freeze_prefix(records)
        finally:
            tr.unwrap_all()
            tr.begin_op(-1)
        read_latencies = [read[3] for r in records for read in r["reads"]]
        owners = len(records) * cfg["churn_owners"]
        # Two kinds of cycle: the churn left lambda alone (closure = the dirty
        # set) or moved it (closure = nearly every identity, 3x the wall).  Each
        # kind's wall is the lowest median of QUIET_OPS consecutive cycles of
        # the kind (README, *Quiet windows*); the rate prices the exact
        # prefix's cycles, the same mix in every run, at their kind's wall,
        # so the costly kind weighs what it costs.
        full = [r["closure"] > cfg["owners"] // 2 for r in records]
        wall = {
            kind: quiet_median(
                [r["wall"] for r, f in zip(records, full) if f == kind], QUIET_OPS
            )
            for kind in (False, True)
        }
        exact = cfg["exact_cycles"]
        n_full = sum(full[:exact])
        prefix_wall = (exact - n_full) * wall[False] + n_full * wall[True]
        return {
            "owners_per_s": exact * cfg["churn_owners"] / prefix_wall,
            "op_p50_ms": wall[2 * n_full > exact] * 1e3,  # the median cycle's kind
            "phase_owners_per_s": owners / busy,
            "phase_op_p50_ms": median([r["wall"] for r in records]) * 1e3,
            "samples": len(records),
            "slices": len(records),
            "phase_s": busy,
            "bytes_per_owner": self.prefix["bytes_per_owner"],
            "ops": range(first_op, self.cycle_no),
            "records": records,
            "owners": owners,
            "read_p99_ms": p99(read_latencies) * 1e3,
        }

    def _freeze_prefix(self, records: list[dict]) -> dict:
        """Totals over the first ``exact_cycles`` cycles, which every run
        completes: the counts that must repeat exactly for one seed."""
        owners = len(records) * self.cfg["churn_owners"]
        written = sum(
            r["bytes_log"] + r["bytes_segments"] + r["bytes_snapshots"] + r["bytes_fetched"]
            for r in records
        )
        frequencies = self.schedule.truth.sum(axis=0, dtype=np.int64)
        published = self.indexes[self.epoch].result_sizes()
        fp = false_positive_rates(frequencies, published - frequencies)
        return {
            "bytes_per_owner": written / owners,
            "search_overhead": float(published.sum() / frequencies.sum()),
            "privacy_success_ratio": success_ratio(fp, self.data.epsilons),
            "dirty": sum(r["dirty"] for r in records),
            "closure": sum(r["closure"] for r in records),
            "republished": sum(r["republished"] for r in records),
        }

    async def layers(self, untraced: dict, traced: dict) -> dict:
        tr = self.tracer
        records, ops = traced["records"], traced["ops"]
        total = tr.per_op(use_self=False)
        own = tr.per_op(use_self=True)

        def per_cycle(name: str, table=total) -> list[float]:
            by_op = table.get(name, {})
            return [by_op.get(op, 0.0) for op in ops]

        owners = traced["owners"]
        appends = sum(r["appends"] for r in records)
        dirty = sum(r["dirty"] for r in records)
        walls = per_cycle("op")
        unattributed = sum(per_cycle("op", own)) / sum(walls)
        if unattributed > 0.10:
            self.failed += 1  # the spans no longer explain the cycle
        return {
            "updates.deltalog.append_us":
                sum(per_cycle("updates.deltalog.append")) / appends * 1e6,
            "updates.deltalog.sync_ms": median_ms(per_cycle("updates.deltalog.sync")),
            "updates.deltalog.bytes_per_op": sum(r["bytes_log"] for r in records) / appends,
            "updates.segments.seal_ms": median_ms(per_cycle("updates.segments.seal")),
            "updates.noise.publish_row_us": median_us(tr.durations("updates.noise.publish_row")),
            "updates.segments.bytes_per_owner":
                sum(r["bytes_segments"] for r in records) / owners,
            "updates.compactor.compact_ms": median_ms(per_cycle("updates.compactor.compact")),
            "updates.compactor.bytes_rewritten_per_owner":
                sum(r["bytes_snapshots"] for r in records) / owners,
            "updates.refresh.refresh_ms": median_ms(per_cycle("updates.refresh.refresh")),
            "updates.refresh.dirty": self.prefix["dirty"],
            "updates.refresh.closure": self.prefix["closure"],
            "updates.refresh.republished": self.prefix["republished"],
            "mpc.incremental.bytes_per_dirty": sum(r["mpc_bytes"] for r in records) / dirty,
            "serving.snapshot.save_ms": median_ms(tr.durations("serving.snapshot.save")),
            "serving.snapshot.load_ms": median_ms(tr.durations("serving.snapshot.load")),
            "serving.server.reload_rtt_ms": median_ms([r["reload_rtt"] for r in records]),
            "replication.streamer.refresh_ms":
                median_ms(per_cycle("replication.streamer.refresh")),
            "replication.applier.catch_up_ms":
                median_ms(per_cycle("replication.applier.catch_up")),
            "replication.applier.fold_ms": median_ms(per_cycle("replication.applier.fold")),
            "replication.applier.bytes_per_owner":
                sum(r["bytes_fetched"] for r in records) / owners,
            "serving.client.read_p99_ms": traced["read_p99_ms"],
            "serving.client.stale_reads": sum(r["stale"] for r in records),
            "serving.client.lost_reads": sum(r["lost"] for r in records),
            "core.publication.publish_ms": median_ms(tr.durations("core.publication.publish")),
            "core.postings.build_ms": median_ms(tr.durations("core.postings.build")),
            "harness.trace_overhead": traced["op_p50_ms"] / untraced["op_p50_ms"],
            "harness.unattributed_share": unattributed,
            "harness.peak_rss_mb": own_peak_rss_mb(),
            "notes": [
                f"spans explain {100 * (1 - unattributed):.1f} % of the cycle wall "
                f"({len(records)} traced cycles)",
            ],
        }

    # -- after the timed phase -----------------------------------------------------

    async def finish(self) -> dict:
        """Every owner through the live server against the final snapshot."""
        index = self.indexes[self.epoch]
        ids = list(range(index.n_owners))
        for start in range(0, len(ids), 256):
            chunk = ids[start : start + 256]
            self.attempted += 1
            try:
                answer = await self.clients[0].query_batch(chunk)
            except (TransportError, RemoteError, asyncio.TimeoutError):
                self.failed += 1
                continue
            if [answer.get(o) for o in chunk] != index.query_many(chunk):
                self.failed += 1
        return {
            "search_overhead": self.prefix["search_overhead"],
            "privacy_success_ratio": self.prefix["privacy_success_ratio"],
        }

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.applier is not None:
            await self.applier.close()
            self.applier = None
        if self.streamer is not None:
            await self.streamer.stop()
            self.streamer = None
        if self.server is not None:
            self.server.stop()
            self.server_peak_rss_mb = self.server.peak_rss_mb
            self.server = None
        # The held MPC state is the largest thing here: gone before a next set-up.
        self.refresher = self.compactor = self.bits = self.schedule = None

    def peak_rss_mb(self) -> float:
        """The leader pipeline runs in this process, the reloads in the
        server: the larger of the two."""
        return max(own_peak_rss_mb(), self.server_peak_rss_mb)
