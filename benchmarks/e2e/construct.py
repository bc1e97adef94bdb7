"""``construct``: secure index construction, no serving at all.  One op is

    secure_beta_calculation (batch engine, dealerless triple factory)
    -> every provider's publish_provider_row -> PostingsIndex.from_provider_rows
    -> save_snapshot

over a fresh network whose seed derives from ``--seed`` and the op number
(the paper's Fig. 6c axis: time against identities, at one stated size).
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

import inputs
from measure import (
    Tracer, median, median_ms, own_peak_rss_mb, quiet_mean, quiet_median,
)
from repro.analysis.cost_model import ConstructionCostModel
from repro.core.policies import ChernoffPolicy
from repro.core.postings import PostingsIndex
from repro.core.publication import false_positive_rates, publish_provider_row
from repro.mpc.betacalc import secure_beta_calculation
from repro.mpc.countbelow import COIN_BITS
from repro.serving.snapshot import load_postings, save_snapshot
from workloads import COORDINATORS, GAMMA, MIN_OPS, QUIET_OPS

WARM_OP = 1_000_000  # the discarded set-up construction's op number


class ConstructWorkload:
    def __init__(self, cfg: dict, seed: int, workdir: str, tracer: Tracer):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.op_no = 0
        self.prefix = None  # exact-count totals, frozen after ``exact_ops``
        self.model = ConstructionCostModel(
            cfg["providers"], cfg["identities"], COORDINATORS,
            producers=cfg["producers"],
        )

    def generate(self) -> None:
        self.warm_inputs = self._inputs(WARM_OP)

    def _inputs(self, op: int):
        """Op ``op``'s network, in the list form the MPC entry point takes."""
        derived = self.seed * 1_000_003 + op
        data = inputs.make_dataset(self.cfg["identities"], self.cfg["providers"], derived)
        return derived, data, data.truth.tolist(), data.epsilons.tolist()

    # -- set-up: warm the circuit caches with one discarded construction -------

    async def setup(self) -> None:
        self._construct(self.warm_inputs)

    def prepare_checks(self) -> None:
        pass

    def _construct(self, op_inputs) -> dict:
        derived, data, bits, epsilons = op_inputs
        tr, cfg = self.tracer, self.cfg
        path = os.path.join(self.workdir, "constructed.npz")
        started = time.perf_counter()
        with tr.span("mpc.betacalc"):
            result = secure_beta_calculation(
                bits, epsilons, ChernoffPolicy(GAMMA), COORDINATORS,
                random.Random(derived), engine="batch", triple_source="factory",
                offline_producers=cfg["producers"],
            )
        coins = np.random.default_rng([derived, 6])
        with tr.span("core.publication.publish"):
            rows = [publish_provider_row(row, result.betas, coins) for row in data.truth]
        with tr.span("core.postings.build"):
            index = PostingsIndex.from_provider_rows(rows, data.n_owners)
        with tr.span("serving.snapshot.save"):
            save_snapshot(index, path, format_version=3, epoch=0)
        wall = time.perf_counter() - started
        return {"wall": wall, "result": result, "rows": rows, "index": index, "path": path}

    def _check(self, op_inputs, done: dict) -> dict:
        """Outside the timed window: metered bytes against the closed-form
        model, 100 % recall, and the snapshot reads back as built."""
        _, data, _, _ = op_inputs
        result, index = done["result"], done["index"]
        phases = result.phases
        metered = (
            phases.setup.bits_sent + phases.offline.bits_sent + phases.online.bits_sent
        )
        predicted = (
            self.model.setup().bits_sent
            + self.model.offline(phases.triple_words_produced).bits_sent
            + self.model.online(round(result.lambda_ * (1 << COIN_BITS))).bits_sent
        )
        loaded = load_postings(done["path"], mmap=False)
        recall = all(
            bool(np.all(row[truth == 1])) for row, truth in zip(done["rows"], data.truth)
        )
        ok = (
            metered == predicted
            and recall
            and np.array_equal(loaded.indptr, index.indptr)
            and np.array_equal(loaded.indices, index.indices)
        )
        self.attempted += 1
        self.failed += 0 if ok else 1
        published = index.result_sizes()
        fp = false_positive_rates(data.frequencies, published - data.frequencies)
        return {
            "wall": done["wall"],
            "bytes": metered / 8,
            "model_ratio": metered / predicted,
            "published": int(published.sum()),
            "true": int(data.frequencies.sum()),
            "private": int(np.sum(fp >= data.epsilons)),
            "and_gates": result.total_and_gates,
            "triple_words": phases.triple_words_consumed,
            "setup_s": phases.setup.wall_time_s,
            "offline_s": phases.offline.wall_time_s,
            "online_s": phases.online.wall_time_s,
            "stall_s": phases.stall_time_s,
            "utilization": phases.utilization,
        }

    async def timed(self, seconds: float, traced: bool) -> dict:
        cfg, tr = self.cfg, self.tracer
        min_ops = max(MIN_OPS, cfg["exact_ops"])
        records: list[dict] = []
        busy = 0.0
        first_op = self.op_no
        while busy < seconds or len(records) < min_ops:
            op_inputs = self._inputs(self.op_no)
            tr.begin_op(self.op_no)
            with tr.span("op"):
                done = self._construct(op_inputs)
            records.append(self._check(op_inputs, done))
            busy += done["wall"]
            self.op_no += 1
            if self.prefix is None and len(records) == cfg["exact_ops"]:
                self.prefix = self._freeze_prefix(records)
        tr.begin_op(-1)
        walls = [r["wall"] for r in records]
        return {
            # Of the quietest QUIET_OPS consecutive constructions (README,
            # *Quiet windows*): all of their wall, and the middle one's.
            "owners_per_s": cfg["identities"] / quiet_mean(walls, QUIET_OPS),
            "op_p50_ms": quiet_median(walls, QUIET_OPS) * 1e3,
            "phase_owners_per_s": len(records) * cfg["identities"] / busy,
            "phase_op_p50_ms": median(walls) * 1e3,
            "samples": len(records),
            "slices": len(records),
            "phase_s": busy,
            "bytes_per_owner": self.prefix["bytes_per_owner"],
            "ops": range(first_op, self.op_no),
            "records": records,
        }

    def _freeze_prefix(self, records: list[dict]) -> dict:
        identities = len(records) * self.cfg["identities"]
        return {
            "bytes_per_owner": sum(r["bytes"] for r in records) / identities,
            "search_overhead": sum(r["published"] for r in records)
            / sum(r["true"] for r in records),
            "privacy_success_ratio": sum(r["private"] for r in records) / identities,
        }

    async def layers(self, untraced: dict, traced: dict) -> dict:
        tr, n = self.tracer, self.cfg["identities"]
        records, ops = traced["records"], traced["ops"]
        own = tr.per_op(use_self=True)
        total = tr.per_op(use_self=False)
        walls = [total["op"][op] for op in ops]
        unattributed = sum(own["op"][op] for op in ops) / sum(walls)
        if unattributed > 0.10:
            self.failed += 1  # the spans no longer explain the construction

        def ms(key: str) -> float:
            return median_ms([r[key] for r in records])

        ratio = median([r["model_ratio"] for r in records])
        return {
            "mpc.phase.setup_ms": ms("setup_s"),
            "mpc.phase.offline_ms": ms("offline_s"),
            "mpc.phase.online_ms": ms("online_s"),
            "mpc.phase.stall_ms": ms("stall_s"),
            "mpc.offline.utilization": median([r["utilization"] for r in records]),
            "mpc.bytes_per_identity": median([r["bytes"] for r in records]) / n,
            "mpc.and_gates_per_identity": median([r["and_gates"] for r in records]) / n,
            "mpc.triple_words": median([r["triple_words"] for r in records]),
            "mpc.model_bytes_ratio": ratio,
            "core.publication.publish_ms": median_ms(tr.durations("core.publication.publish")),
            "core.postings.build_ms": median_ms(tr.durations("core.postings.build")),
            "serving.snapshot.save_ms": median_ms(tr.durations("serving.snapshot.save")),
            "harness.trace_overhead": traced["op_p50_ms"] / untraced["op_p50_ms"],
            "harness.unattributed_share": unattributed,
            "harness.peak_rss_mb": own_peak_rss_mb(),
            "notes": [
                f"ceiling mpc.model_bytes_ratio {ratio:.6f} (metered bytes / "
                f"ConstructionCostModel prediction; must be 1.0)",
                f"spans explain {100 * (1 - unattributed):.1f} % of the construction "
                f"wall ({len(records)} traced ops)",
            ],
        }

    async def finish(self) -> dict:
        return {
            "search_overhead": self.prefix["search_overhead"],
            "privacy_success_ratio": self.prefix["privacy_success_ratio"],
        }

    async def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()
