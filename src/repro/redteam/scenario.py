"""Adversarial campaigns against a live fleet: churn, storms, attacks.

A :class:`Scenario` describes one observation campaign end to end: a
synthetic information network with **per-ε privacy tiers** (each owner's β
set by their tier, the paper's personalized-privacy knob), an epoch
schedule with truth churn, a republication policy (``sticky`` coins vs the
naive fresh-coin baseline), and a traffic shape for the cover load the
adversary hides in (uniform / diurnal / burst, hot-key Zipf skew).

:class:`ScenarioRunner` executes it against the *real* serving stack: it
publishes each epoch as an ordinary v3 snapshot, boots a
:class:`~repro.serving.fleet.FleetSupervisor` (one OS process per shard),
rolls the fleet epoch to epoch with
:meth:`~repro.serving.fleet.FleetSupervisor.rollout`, drives shaped load
through a pooled :class:`~repro.serving.client.LocatorClient`, and harvests
the adversary's :class:`~repro.redteam.observations.ObservationLog` over
the same sockets.  With ``reload_storm`` the harvest and load ride
*through* the rolling reload -- the flash-crowd scenario where an attacker
deliberately reads during republication hoping to catch mixed epochs.

The output pairs the usual :class:`~repro.serving.loadgen.LoadReport` per
epoch with one :class:`~repro.redteam.report.PrivacyReport` for the whole
campaign.  :func:`run_attacks` is the scoring half on its own, reusable
against a previously recorded log (``eppi redteam replay``).
"""

from __future__ import annotations

import asyncio
import hashlib
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional

import numpy as np

from repro.core.errors import ModelError
from repro.core.postings import PostingsIndex
from repro.redteam.attackers import (
    EpochDiffAttacker,
    LinkageAttacker,
    LongitudinalIntersectionAttacker,
)
from repro.redteam.observations import LiveObserver, ObservationLog
from repro.redteam.report import PrivacyReport
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.fleet import FleetSupervisor
from repro.serving.loadgen import TRAFFIC_SHAPES, run_load
from repro.serving.snapshot import save_snapshot
from repro.updates.noise import StickyOwnerStream

__all__ = [
    "EPSILON_TIERS",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioRunner",
    "load_truth_payload",
    "run_attacks",
    "run_scenario",
    "synthetic_directory",
    "truth_payload",
]

#: (tier name, β) -- stricter ε means a larger publication degree, i.e.
#: more decoys mixed into the published row.
EPSILON_TIERS = (("strict", 0.45), ("default", 0.25), ("relaxed", 0.10))


@dataclass
class Scenario:
    """One adversarial campaign, fully determined by ``seed``."""

    n_providers: int = 32
    n_owners: int = 120
    epochs: int = 5
    churn: float = 0.01  # fraction of owners whose truth moves per epoch
    sticky: bool = True  # False: naive fresh-coin republication baseline
    seed: int = 0
    n_shards: int = 1
    tiers: tuple = EPSILON_TIERS
    # cover-load knobs (the traffic the adversary hides in)
    workers: int = 2
    requests_per_worker: int = 20
    mode: str = "query"
    shape: str = "uniform"
    think_time_s: float = 0.0
    shape_period: int = 16
    zipf_a: float = 0.0
    reload_storm: bool = False
    # truth-generation knobs
    min_true: int = 1
    max_true: int = 4
    # adversary knobs
    monitor_owners: Optional[int] = None  # None: observe every owner
    linkage_targets: int = 8  # 0 disables the linkage attacker

    def __post_init__(self) -> None:
        if self.n_providers < 2 or self.n_owners < 1:
            raise ModelError("need >= 2 providers and >= 1 owner")
        if self.epochs < 1:
            raise ModelError(f"need >= 1 epoch, got {self.epochs}")
        if not 0.0 <= self.churn <= 1.0:
            raise ModelError(f"churn must lie in [0, 1], got {self.churn}")
        if not self.tiers:
            raise ModelError("need at least one privacy tier")
        if self.shape not in TRAFFIC_SHAPES:
            raise ModelError(f"shape must be one of {TRAFFIC_SHAPES}")
        if not 1 <= self.min_true <= self.max_true < self.n_providers:
            raise ModelError("need 1 <= min_true <= max_true < n_providers")
        if self.shape != "uniform" and self.think_time_s <= 0:
            # a shaped campaign needs a pause to modulate; pick a tiny one
            self.think_time_s = 0.002

    # -- per-ε tiers ----------------------------------------------------------

    def tier_of(self, owner_id: int) -> str:
        """Owners interleave tiers, so Zipf-hot keys span every tier."""
        return self.tiers[owner_id % len(self.tiers)][0]

    def beta_of(self, owner_id: int) -> float:
        return self.tiers[owner_id % len(self.tiers)][1]

    def tier_map(self) -> dict:
        return {j: self.tier_of(j) for j in range(self.n_owners)}

    @property
    def noise_key(self) -> bytes:
        return hashlib.sha256(
            b"eppi-redteam" + self.seed.to_bytes(8, "big", signed=True)
        ).digest()[:16]

    @property
    def monitored(self) -> list:
        count = self.monitor_owners or self.n_owners
        return list(range(min(count, self.n_owners)))

    @property
    def mode_name(self) -> str:
        return "sticky" if self.sticky else "naive"

    # -- truth history --------------------------------------------------------

    def _draw_row(self, rng: np.random.Generator) -> set:
        size = int(rng.integers(self.min_true, self.max_true + 1))
        return {
            int(p) for p in rng.choice(self.n_providers, size=size, replace=False)
        }

    def truth_history(self) -> dict:
        """``epoch -> {owner -> true provider set}`` for the whole campaign."""
        rng = np.random.default_rng((self.seed, 3))
        truth = {j: self._draw_row(rng) for j in range(self.n_owners)}
        history = {0: {j: set(s) for j, s in truth.items()}}
        n_churn = max(1, round(self.churn * self.n_owners)) if self.churn else 0
        for epoch in range(1, self.epochs):
            rng_e = np.random.default_rng((self.seed, 5, epoch))
            if n_churn:
                movers = rng_e.choice(
                    self.n_owners, size=min(n_churn, self.n_owners), replace=False
                )
                for j in movers:
                    truth[int(j)] = self._draw_row(rng_e)
            history[epoch] = {j: set(s) for j, s in truth.items()}
        return history

    # -- publication ----------------------------------------------------------

    def published_dense(self, truth: Mapping[int, set], epoch: int) -> np.ndarray:
        """The epoch's published matrix under the scenario's noise policy.

        Sticky: every owner's decoys come from their persisted
        :class:`StickyOwnerStream` coins -- identical across epochs.
        Naive: decoys are redrawn per ``(seed, epoch, owner)``, the
        republication policy the intersection attack punishes.
        """
        dense = np.zeros((self.n_providers, self.n_owners), dtype=np.uint8)
        owners = range(self.n_owners)
        trues = [sorted(truth.get(owner, ())) for owner in owners]
        if self.sticky:
            counts, rows = StickyOwnerStream(self.noise_key).publish_rows(
                owners, trues, [self.beta_of(owner) for owner in owners],
                self.n_providers,
            )
            dense[rows, np.repeat(np.arange(self.n_owners), counts)] = 1
            return dense
        for owner, true in zip(owners, trues):
            coins = np.random.default_rng(
                (self.seed, 13, epoch, owner)
            ).random(self.n_providers)
            published = coins < self.beta_of(owner)
            published[true] = True
            dense[np.nonzero(published)[0], owner] = 1
        return dense


# -- quasi-identifier corpus ---------------------------------------------------

_FIRST = ["ana", "boris", "carla", "dmitri", "elena", "farid", "grace",
          "hiro", "ines", "jonas"]
_LAST = ["alvarez", "brown", "chen", "dubois", "eriksen", "fischer",
         "garcia", "haddad", "ito", "jensen"]
_CITY = ["arlon", "berlin", "calgary", "dresden", "essen", "faro", "ghent",
         "hanoi"]


def synthetic_directory(owner_ids) -> dict:
    """A leaked subscriber directory: unique demographics per owner id.

    Deterministic and collision-free below 100 owners (first/last names are
    indexed independently), so linkage tests have a crisp ground truth.
    """
    directory = {}
    for owner in owner_ids:
        directory[int(owner)] = {
            "first_name": _FIRST[owner % len(_FIRST)],
            "last_name": _LAST[(owner // len(_FIRST)) % len(_LAST)],
            "date_of_birth": (
                f"19{50 + owner % 50:02d}-{1 + owner % 12:02d}"
                f"-{1 + owner % 28:02d}"
            ),
            "city": _CITY[owner % len(_CITY)],
        }
    return directory


def _dirty_targets(directory: dict, owners) -> tuple:
    """The attacker's own records: truncation typos on the first name."""
    targets, true_owners = [], []
    for owner in owners:
        fields = dict(directory[owner])
        name = fields["first_name"]
        if len(name) > 3:
            fields["first_name"] = name[:-1]
        targets.append(fields)
        true_owners.append(owner)
    return targets, true_owners


# -- scoring -------------------------------------------------------------------


def run_attacks(
    log: ObservationLog,
    truth_by_epoch: Mapping[int, Mapping[int, set]],
    tier_map: Mapping[int, str],
    mode: str,
    linkage_targets: int = 0,
) -> PrivacyReport:
    """Run every attacker over a recorded log and assemble the report."""
    intersection = LongitudinalIntersectionAttacker(log)
    curve = intersection.degradation_curve(truth_by_epoch)

    epochs = log.epochs()
    per_tier: dict[str, float] = {}
    anonymity: dict = {}
    if epochs:
        final_truth = truth_by_epoch.get(epochs[-1], {})
        final = intersection.attack(final_truth, upto_epoch=epochs[-1])
        by_tier: dict[str, list] = {}
        for owner, confidence in final.confidences.items():
            if final.survivors[owner]:
                by_tier.setdefault(tier_map.get(owner, "?"), []).append(confidence)
        per_tier = {
            tier: sum(vals) / len(vals) for tier, vals in sorted(by_tier.items())
        }
        anonymity = PrivacyReport.summarize_anonymity(
            final.anonymity_sizes.values()
        )

    diff = EpochDiffAttacker(log).attack(truth_by_epoch)
    diff_summary = {
        "pairs": diff.pairs,
        "claimed_bits": diff.claimed_bits,
        "true_bits": diff.true_bits,
        "precision": diff.precision,
        "churned_owners": diff.churned_owners,
        "false_churn_owners": diff.false_churn_owners,
    }

    linkage_summary = None
    if linkage_targets > 0 and epochs:
        observed = log.owners()
        directory = synthetic_directory(observed)
        targets, true_owners = _dirty_targets(
            directory, observed[: min(linkage_targets, len(observed))]
        )
        outcome = LinkageAttacker(log).attack(
            targets,
            directory,
            truth=truth_by_epoch.get(epochs[-1], {}),
            true_owners=true_owners,
        )
        linkage_summary = {
            "n_targets": outcome.n_targets,
            "linked": outcome.linked,
            "linkage_precision": outcome.linkage_precision,
            "membership_confidence": outcome.membership_confidence,
        }

    return PrivacyReport(
        mode=mode,
        epochs=epochs,
        observed_owners=len(log.owners()),
        n_observations=log.n_records,
        degradation_curve=curve,
        per_tier_success=per_tier,
        anonymity_sets=anonymity,
        diff=diff_summary,
        linkage=linkage_summary,
    )


# -- execution -----------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """Everything one campaign produced."""

    scenario: Scenario
    report: PrivacyReport
    load_reports: list = field(default_factory=list)
    truth_by_epoch: dict = field(default_factory=dict)
    observation_path: Optional[str] = None


def truth_payload(outcome: ScenarioOutcome) -> dict:
    """JSON-safe ground truth + tier map, for ``eppi redteam replay``."""
    return {
        "mode": outcome.scenario.mode_name,
        "tiers": {
            str(j): outcome.scenario.tier_of(j)
            for j in range(outcome.scenario.n_owners)
        },
        "truth_by_epoch": {
            str(epoch): {str(j): sorted(s) for j, s in truth.items()}
            for epoch, truth in outcome.truth_by_epoch.items()
        },
    }


def load_truth_payload(payload: dict) -> tuple:
    """Inverse of :func:`truth_payload`: (truth_by_epoch, tier_map, mode)."""
    truth_by_epoch = {
        int(epoch): {int(j): set(ids) for j, ids in truth.items()}
        for epoch, truth in payload["truth_by_epoch"].items()
    }
    tier_map = {int(j): tier for j, tier in payload.get("tiers", {}).items()}
    return truth_by_epoch, tier_map, payload.get("mode", "unknown")


class ScenarioRunner:
    """Execute a :class:`Scenario` against a freshly booted live fleet."""

    def __init__(
        self,
        scenario: Scenario,
        workdir: str,
        observation_path: Optional[str] = None,
    ):
        self.scenario = scenario
        self.workdir = workdir
        self.observation_path = observation_path
        self.log = ObservationLog(observation_path)
        self.load_reports: list = []

    def _snapshot_path(self, epoch: int) -> str:
        return os.path.join(self.workdir, f"epoch_{epoch:04d}.npz")

    def _publish_all(self, truth_by_epoch: dict) -> list:
        paths = []
        for epoch in range(self.scenario.epochs):
            dense = self.scenario.published_dense(truth_by_epoch[epoch], epoch)
            path = self._snapshot_path(epoch)
            save_snapshot(
                PostingsIndex.from_dense(dense),
                path,
                format_version=3,
                epoch=epoch,
            )
            paths.append(path)
        return paths

    async def _load_phase(self, client: LocatorClient) -> object:
        sc = self.scenario
        return await run_load(
            client,
            list(range(sc.n_owners)),
            n_workers=sc.workers,
            requests_per_worker=sc.requests_per_worker,
            mode=sc.mode,
            think_time_s=sc.think_time_s,
            zipf_a=sc.zipf_a,
            seed=sc.seed,
            shape=sc.shape,
            shape_period=sc.shape_period,
            tier_of=sc.tier_map(),
        )

    async def _campaign(self, fleet: FleetSupervisor, paths: list) -> None:
        sc = self.scenario
        client = LocatorClient(
            servers=fleet.addresses,
            cache_size=0,
            retry=RetryPolicy(max_retries=5, timeout_s=5.0, base_delay_s=0.02),
        )
        observer = LiveObserver(client, self.log)
        loop = asyncio.get_running_loop()
        try:
            for epoch in range(sc.epochs):
                if epoch > 0:
                    rollout = loop.run_in_executor(
                        None,
                        partial(
                            fleet.rollout, paths[epoch], settle_timeout_s=30.0
                        ),
                    )
                    if sc.reload_storm:
                        # flash crowd: the adversary reads and loads *during*
                        # the rolling reload, hoping to catch mixed epochs
                        storm = asyncio.ensure_future(
                            observer.harvest(sc.monitored)
                        )
                        self.load_reports.append(await self._load_phase(client))
                        await rollout
                        await storm
                    else:
                        await rollout
                        self.load_reports.append(await self._load_phase(client))
                else:
                    self.load_reports.append(await self._load_phase(client))
                # the epoch's canonical harvest: one observation per owner
                await observer.harvest(sc.monitored)
        finally:
            await client.close()

    def run(self) -> ScenarioOutcome:
        sc = self.scenario
        truth_by_epoch = sc.truth_history()
        paths = self._publish_all(truth_by_epoch)
        with FleetSupervisor(paths[0], n_shards=sc.n_shards) as fleet:
            fleet.start(monitor=True)
            asyncio.run(self._campaign(fleet, paths))
        report = run_attacks(
            self.log,
            truth_by_epoch,
            sc.tier_map(),
            sc.mode_name,
            linkage_targets=sc.linkage_targets,
        )
        self.log.close()
        return ScenarioOutcome(
            scenario=sc,
            report=report,
            load_reports=self.load_reports,
            truth_by_epoch=truth_by_epoch,
            observation_path=self.observation_path,
        )


def run_scenario(
    scenario: Scenario,
    workdir: str,
    observation_path: Optional[str] = None,
) -> ScenarioOutcome:
    """One-call campaign: publish, boot, attack, score, tear down."""
    return ScenarioRunner(scenario, workdir, observation_path).run()
