"""``read_point`` and ``read_batch_cold``: the locator read path over a
socket, closed loop, two connections against one ``eppi serve`` process.

Both serve the same snapshot.  ``read_point`` asks for single owners out of
a hot set that fits the server's response slab (hit ratio exactly 1.0: the
op is encode + socket + frame decode + header splice).  ``read_batch_cold``
asks for 128-owner batches in laps over every owner (hit ratio exactly
0.0: every owner pays the postings gather and the slab render).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time

import numpy as np

import inputs
from measure import (
    CountingPool, ServerProcess, Tracer, median, median_ms, median_us,
    own_peak_rss_mb, p99, pin_harness,
)
from repro.core.policies import ChernoffPolicy
from repro.core.postings import PostingsIndex
from repro.core.privacy import success_ratio
from repro.core.publication import false_positive_rates, publish_provider_row
from repro.serving import server as server_module
from repro.serving.client import LocatorClient, RetryPolicy, TransportError
from repro.serving.protocol import (
    VERB_QUERY, VERB_QUERY_BATCH, RemoteError, request,
)
from repro.serving.protocol_v2 import (
    FrameDecoder, PreparedFrameV2, encode_request_v2,
)
from repro.serving.server import PPIServer
from repro.serving.snapshot import load_serving_state, save_snapshot
from workloads import CONNECTIONS, GAMMA, MIN_SLICES, SERVER_SLAB_ENTRIES

RETRY = RetryPolicy(max_retries=0, timeout_s=10.0)


class ReadWorkload:
    def __init__(self, name: str, cfg: dict, seed: int, workdir: str, tracer: Tracer,
                 client_factory=LocatorClient):
        self.point = name == "read_point"
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.client_factory = client_factory
        self.server = None
        self.clients: list = []
        self.failed = 0
        self.attempted = 0

    # -- inputs (numpy only; not part of set-up) -------------------------------

    def generate(self) -> None:
        cfg = self.cfg
        self.data = inputs.make_dataset(cfg["owners"], cfg["providers"], self.seed)
        if self.point:
            assert cfg["hot"] <= SERVER_SLAB_ENTRIES // 2
            self.hot = inputs.hot_owners(self.data, cfg["hot"])
            lap = inputs.zipf_lap(self.hot, cfg["lap_ops"], cfg["zipf_a"])
            laps = inputs.point_laps(lap, self.seed)
            self.ops = (op for lap in laps for op in lap.tolist())
            self.slice_ops = cfg["slice_ops"]
            self.exact_slices = cfg["lap_ops"] // cfg["slice_ops"]
        else:
            batch = cfg["batch"]
            lap_batches = cfg["owners"] // batch
            assert lap_batches % cfg["slice_batches"] == 0
            assert cfg["owners"] // 2 > 2 * SERVER_SLAB_ENTRIES
            laps = inputs.cold_laps(cfg["owners"], self.seed)
            self.ops = (
                lap[k * batch : (k + 1) * batch].tolist()
                for lap in laps for k in range(lap_batches)
            )
            self.slice_ops = cfg["slice_batches"]
            self.exact_slices = lap_batches // cfg["slice_batches"]

    # -- set-up: program work before the first timed op ------------------------

    async def setup(self) -> None:
        data, tr = self.data, self.tracer
        pin_harness()
        betas = ChernoffPolicy(GAMMA).beta_vector(
            data.frequencies / data.n_providers, data.epsilons, data.n_providers
        )
        coins = np.random.default_rng([self.seed, 6])
        with tr.span("core.publication.publish"):
            rows = [publish_provider_row(row, betas, coins) for row in data.truth]
        with tr.span("core.postings.build"):
            self.index = PostingsIndex.from_provider_rows(rows, data.n_owners)
        del rows
        self.snapshot = os.path.join(self.workdir, "read.npz")
        with tr.span("serving.snapshot.save"):
            save_snapshot(self.index, self.snapshot, format_version=3, epoch=0)
        self.server = ServerProcess(self.snapshot, self.workdir, pinned=True)
        self.server.wait_ready()
        self.clients = []
        for k in range(CONNECTIONS):
            client = self.client_factory(
                [self.server.address], retry=RETRY, cache_size=0,
                protocol="v2", rng_seed=k,
            )
            client.pool = CountingPool()
            self.clients.append(client)
        await self._warm_up()

    async def _warm_up(self) -> None:
        if self.point:
            hot = self.hot.tolist()
            shares = [hot[k::CONNECTIONS] for k in range(CONNECTIONS)]
        else:
            # The tail of a lap: the timed phase opens with the other half of
            # the id space, so nothing warmed here is still cached when met.
            batch, n = self.cfg["batch"], self.cfg["owners"]
            tail = list(range(n - self.cfg["warm_batches"] * batch, n))
            chunks = [tail[i : i + batch] for i in range(0, len(tail), batch)]
            shares = [chunks[k::CONNECTIONS] for k in range(CONNECTIONS)]
        out = await asyncio.gather(
            *(self._worker(c, ops) for c, ops in zip(self.clients, shares))
        )
        if any(isinstance(a, Exception) for _, _, answers in out for a in answers):
            raise RuntimeError("warm-up op failed")

    # -- the closed loop ---------------------------------------------------------

    async def _worker(self, client, ops: list):
        """One connection's share of a slice: ask, wait, ask.  Answers are
        kept and checked after the slice, outside the timed window."""
        if not ops:
            return [], [], []
        call = client.query_batch if isinstance(ops[0], list) else client.query
        clock = time.perf_counter
        starts, ends, answers = [], [], []
        for op in ops:
            started = clock()
            try:
                answer = await call(op)
            except (TransportError, RemoteError, asyncio.TimeoutError) as exc:
                answer = exc
            ends.append(clock())
            starts.append(started)
            answers.append(answer)
        return starts, ends, answers

    def _check(self, op, answer) -> bool:
        """Served == ``PostingsIndex.query`` on the snapshot (which is a
        superset of the truth: checked once, on the index, in ``finish``)."""
        if isinstance(answer, Exception):
            return False
        if isinstance(op, int):
            return answer == self.expected[op]
        return len(answer) == len(op) and all(
            answer.get(o) == self.expected[o] for o in op
        )

    def prepare_checks(self) -> None:
        ids = np.arange(self.data.n_owners)
        self.expected = self.index.query_many(ids)

    async def timed(self, seconds: float, traced: bool) -> dict:
        """Slices of ``slice_ops`` ops until ``seconds`` of slice time have
        passed (at least ``MIN_SLICES``, and the exact-count prefix).  Rate
        and latency are those of the quietest slice: see README, *Quiet
        windows*."""
        tr, cfg = self.tracer, self.cfg
        min_slices = max(MIN_SLICES, self.exact_slices)
        owners_per_op = 1 if self.point else cfg["batch"]
        latencies: list[float] = []
        rates: list[float] = []
        slice_p50s: list[float] = []
        pings: list[float] = []
        exact = None
        sent = received = 0
        stats_before = await self.clients[0].stats(self.server.address)
        cpu_before = (self.server.cpu_seconds(), time.process_time())
        busy = 0.0
        n_ops = 0
        epochs_seen = [c.fleet_epoch for c in self.clients]
        while busy < seconds or len(rates) < min_slices:
            ops = list(itertools.islice(self.ops, self.slice_ops))
            shares = [ops[k::CONNECTIONS] for k in range(CONNECTIONS)]
            bytes_before = self._bytes()
            started = time.perf_counter()
            out = await asyncio.gather(
                *(self._worker(c, s) for c, s in zip(self.clients, shares))
            )
            wall = time.perf_counter() - started
            bytes_after = self._bytes()
            sent += bytes_after[0] - bytes_before[0]
            received += bytes_after[1] - bytes_before[1]
            busy += wall
            rates.append(len(ops) * owners_per_op / wall)
            slice_p50s.append(median(
                [t1 - t0 for starts, ends, _ in out for t0, t1 in zip(starts, ends)]
            ))
            for share, (starts, ends, answers) in zip(shares, out):
                for op, t0, t1, answer in zip(share, starts, ends, answers):
                    latencies.append(t1 - t0)
                    if not self._check(op, answer):
                        self.failed += 1
                    if traced:
                        tr.add("op", t0, t1, n_ops)
                    n_ops += 1
            for k, client in enumerate(self.clients):
                if client.fleet_epoch < epochs_seen[k] or client.fleet_epoch != 0:
                    self.failed += 1  # an epoch regressed (or appeared from nowhere)
                epochs_seen[k] = client.fleet_epoch
            if len(rates) == self.exact_slices:
                exact = (sent, received, n_ops)
            if traced:
                pings.extend(await self._ping(cfg["ping_per_slice"]))
        self.attempted += n_ops
        stats_after = await self.clients[0].stats(self.server.address)
        cpu_after = (self.server.cpu_seconds(), time.process_time())
        hits, misses = (
            stats_after["counters"].get(key, 0) - stats_before["counters"].get(key, 0)
            for key in ("response_cache_hits_total", "response_cache_misses_total")
        )
        hit_ratio = hits / max(1, hits + misses)
        if hit_ratio != (1.0 if self.point else 0.0):
            self.failed += 1  # the workload is not the one its name promises
        kowners = n_ops * owners_per_op / 1000.0
        return {
            "owners_per_s": max(rates),
            "op_p50_ms": min(slice_p50s) * 1e3,
            "phase_owners_per_s": n_ops * owners_per_op / busy,
            "phase_op_p50_ms": median(latencies) * 1e3,
            "op_p99_ms": p99(latencies) * 1e3,
            "samples": n_ops,
            "slices": len(rates),
            "phase_s": busy,
            "req_bytes_per_op": exact[0] / exact[2],
            "resp_bytes_per_op": exact[1] / exact[2],
            "bytes_per_owner": (exact[0] + exact[1]) / (exact[2] * owners_per_op),
            "slab_hit_ratio": hit_ratio,
            "server_cpu_ms_per_kowner": (cpu_after[0] - cpu_before[0]) * 1e3 / kowners,
            "client_cpu_ms_per_kowner": (cpu_after[1] - cpu_before[1]) * 1e3 / kowners,
            "ping_rtt_us": median_us(pings),
        }

    def _bytes(self) -> tuple[int, int]:
        return (
            sum(c.pool.bytes_sent for c in self.clients),
            sum(c.pool.bytes_received for c in self.clients),
        )

    async def _ping(self, count: int) -> list[float]:
        """Loopback-echo ceiling: the cheapest verb, same sockets."""

        async def one(client) -> list[float]:
            out = []
            for _ in range(count):
                started = time.perf_counter()
                await client.call(self.server.address, "ping")
                out.append(time.perf_counter() - started)
            return out

        per_client = await asyncio.gather(*(one(c) for c in self.clients))
        return [rtt for rtts in per_client for rtt in rtts]

    # -- traced replay: the same ops, in process, one layer at a time ----------

    async def replay(self) -> dict:
        """``encode_request_v2 -> FrameDecoder.feed -> PPIServer.handle ->
        reply parts -> FrameDecoder.feed`` on an un-started server over the
        same snapshot, a span around each stage.  What the live op costs
        beyond the sum is socket + event loop + scheduler: the residual."""
        tr, cfg = self.tracer, self.cfg
        with tr.span("serving.snapshot.load"):
            index, epoch = load_serving_state(self.snapshot)
        server = PPIServer(index, snapshot_path=self.snapshot, epoch=epoch)
        count = cfg["replay_ops"] if self.point else cfg["replay_batches"]
        ops = list(itertools.islice(self.ops, count))
        verb = VERB_QUERY if self.point else VERB_QUERY_BATCH
        key = "owner" if self.point else "owners"
        if self.point:  # the live phase ran warm: warm the replay's slab too
            for owner in self.hot.tolist():
                await server.handle(verb, {"owner": owner}, 0, 2)
        tr.wrap(server_module, "ResponseSlab", "serving.server.slab_render")
        tr.wrap(server_module, "batch_response_parts", "serving.protocol_v2.encode")
        tr.wrap(PreparedFrameV2, "encode", "serving.protocol_v2.encode")
        tr.wrap(index, "query", "core.postings.gather")
        tr.wrap(index, "query_many", "core.postings.gather")
        to_server, to_client = FrameDecoder(protocols=(2,)), FrameDecoder(protocols=(2,))
        op_base = 1_000_000  # replay op ids, apart from the live phase's
        try:
            for k, op in enumerate(ops):
                tr.begin_op(op_base + k)
                message = request(verb, k + 1, **{key: op})
                with tr.span("serving.client.encode"):
                    wire = encode_request_v2(message)
                with tr.span("serving.protocol_v2.decode"):
                    (frame,) = to_server.feed(wire)
                with tr.span("serving.server.handle"):
                    reply = await server.handle(verb, frame.message, k + 1, 2)
                wire = b"".join(reply.parts)
                with tr.span("serving.client.decode"):
                    (back,) = to_client.feed(wire)
                answer = back.message["providers"] if self.point else {
                    int(o): p for o, p in back.message["results"].items()
                }
                self.attempted += 1
                if not self._check(op, answer):
                    self.failed += 1
        finally:
            tr.unwrap_all()
            tr.begin_op(-1)
        # Kernel ceiling: the CSR gather alone on the same owner stream.
        flat = ops if self.point else [o for op in ops for o in op]
        gather = []
        for start in range(0, len(flat), 128):
            ids = np.asarray(flat[start : start + 128], dtype=np.int64)
            started = time.perf_counter()
            index.query_many_arrays(ids)
            gather.append((time.perf_counter() - started) / ids.size)
        index.release()

        replay_ops = range(op_base, op_base + len(ops))
        total = tr.per_op(use_self=False)
        own = tr.per_op(use_self=True)

        def per_op_us(table: dict, name: str) -> float:
            by_op = table.get(name, {})
            return median_us([by_op.get(op, 0.0) for op in replay_ops])

        renders = tr.durations("serving.server.slab_render")
        return {
            "serving.client.encode_us": per_op_us(total, "serving.client.encode"),
            "serving.client.decode_us": per_op_us(total, "serving.client.decode"),
            "serving.protocol_v2.decode_us": per_op_us(total, "serving.protocol_v2.decode"),
            "serving.protocol_v2.encode_us": per_op_us(total, "serving.protocol_v2.encode"),
            "serving.server.handle_us": per_op_us(own, "serving.server.handle"),
            "serving.server.slab_render_us": median_us(renders),
            "core.postings.gather_us_per_owner": median_us(gather),
            "core.postings.owners_per_s": 1.0 / median(gather),
            "in_process_us": sum(
                per_op_us(total, name) for name in (
                    "serving.client.encode", "serving.protocol_v2.decode",
                    "serving.server.handle", "serving.client.decode",
                )
            ),
        }

    async def layers(self, untraced: dict, traced: dict) -> dict:
        replay = await self.replay()
        tr = self.tracer
        in_process = replay.pop("in_process_us")
        op_us = untraced["op_p50_ms"] * 1e3
        residual = op_us - in_process
        if self.point:
            ceiling = (
                f"ceiling serving.wire.ping_rtt_us {traced['ping_rtt_us']:.1f} us -> "
                f"{CONNECTIONS * 1e6 / traced['ping_rtt_us']:.0f} owners/s on "
                f"{CONNECTIONS} connections (measured {untraced['owners_per_s']:.0f})"
            )
        else:
            ceiling = (
                f"ceiling core.postings.owners_per_s {replay['core.postings.owners_per_s']:.0f} "
                f"(measured over the wire {untraced['owners_per_s']:.0f})"
            )
        return {
            **replay,
            "serving.server.slab_hit_ratio": traced["slab_hit_ratio"],
            "serving.wire.ping_rtt_us": traced["ping_rtt_us"],
            "serving.wire.residual_us": residual,
            "serving.wire.req_bytes_per_op": untraced["req_bytes_per_op"],
            "serving.wire.resp_bytes_per_op": untraced["resp_bytes_per_op"],
            "serving.server.cpu_ms_per_kowner": traced["server_cpu_ms_per_kowner"],
            "serving.client.cpu_ms_per_kowner": traced["client_cpu_ms_per_kowner"],
            "serving.client.op_p99_ms": traced["op_p99_ms"],
            "core.publication.publish_ms": median_ms(tr.durations("core.publication.publish")),
            "core.postings.build_ms": median_ms(tr.durations("core.postings.build")),
            "serving.snapshot.save_ms": median_ms(tr.durations("serving.snapshot.save")),
            "serving.snapshot.load_ms": median_ms(tr.durations("serving.snapshot.load")),
            "harness.trace_overhead": traced["op_p50_ms"] / untraced["op_p50_ms"],
            "harness.peak_rss_mb": own_peak_rss_mb(),
            "notes": [
                ceiling,
                f"serving.wire.residual_us is {100 * residual / op_us:.1f} % of op_p50_ms "
                f"({op_us:.1f} us live, {in_process:.1f} us in process)",
            ],
        }

    # -- after the timed phase ---------------------------------------------------

    async def finish(self) -> dict:
        """Sweep every owner through the live server: the full-output
        correctness check, and the population the quality metrics are
        computed over (what was *served*, against the harness's truth)."""
        data, cfg = self.data, self.cfg
        ids = list(range(data.n_owners))
        chunks = [ids[i : i + cfg["sweep_batch"]] for i in range(0, len(ids), cfg["sweep_batch"])]
        shares = [chunks[k::CONNECTIONS] for k in range(CONNECTIONS)]
        out = await asyncio.gather(
            *(self._worker(c, s) for c, s in zip(self.clients, shares))
        )
        served = np.zeros(data.n_owners, dtype=np.int64)
        for share, (_, _, answers) in zip(shares, out):
            for op, answer in zip(share, answers):
                self.attempted += 1
                if not self._check(op, answer):
                    self.failed += 1
                    continue
                served[op] = [len(answer[o]) for o in op]
        # 100 % recall: every true (owner, provider) pair is in the index the
        # served answers were just checked against.
        published = (
            np.repeat(ids, self.index.result_sizes()) * data.n_providers + self.index.indices
        )
        providers, owners = np.nonzero(data.truth)
        true_pairs = owners * data.n_providers + providers
        found = np.searchsorted(published, true_pairs)
        found[found == published.size] = 0
        if not np.array_equal(published[found], true_pairs):
            self.failed += 1
        fp = false_positive_rates(data.frequencies, served - data.frequencies)
        return {
            "search_overhead": float(served.sum() / data.frequencies.sum()),
            "privacy_success_ratio": success_ratio(fp, data.epsilons),
        }

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()

    def peak_rss_mb(self) -> float:
        """The server's: it is the program; this process is its client."""
        return self.server.peak_rss_mb
