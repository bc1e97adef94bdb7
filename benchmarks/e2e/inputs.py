"""Seeded input generation for the end-to-end benchmark (numpy only).

Everything the program is handed -- truth matrix, ǫ vector, op schedule,
churn sets -- is a function of ``--seed`` and the frozen constants in
``workloads.py``; nothing here imports the program under test.

The generator is *stratified*: the multiset of (frequency, ǫ) pairs is the
same for every seed, and the seed decides which owner id carries which
pair, which providers hold it, and the order of operations.  The quality
metrics (search overhead, privacy success ratio) and the byte counts then
differ between seeds only by the publication coins, not by how heavy a
tail the seed happened to draw, which is what lets their regression
bounds be tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pareto shape of the identity-frequency profile (most owners sit at one or
# two providers, a thin tail is near-common) and the ǫ range of the paper's
# experiments.
FREQ_SHAPE = 1.5
EPS_LOW, EPS_HIGH = 0.2, 0.8
_GOLDEN = 0.6180339887498949
_TABLE_SEED = 0xE2E  # fixed: the (frequency, ǫ) table is the same for every seed


@dataclass
class Dataset:
    """One generated information network: truth, privacy degrees, sizes."""

    truth: np.ndarray  # uint8 [providers, owners], provider-major rows
    epsilons: np.ndarray  # float64 [owners]
    frequencies: np.ndarray  # int64 [owners], column sums of ``truth``
    owner_of: np.ndarray  # table position -> owner id (the seeded permutation)

    @property
    def n_providers(self) -> int:
        return self.truth.shape[0]

    @property
    def n_owners(self) -> int:
        return self.truth.shape[1]


def pair_table(n_owners: int, n_providers: int) -> tuple[np.ndarray, np.ndarray]:
    """The seed-independent (frequency, ǫ) table, in a fixed shuffled order.

    Frequencies follow the inverse CDF of a Pareto law on evenly spaced
    quantiles, capped at half the providers; ǫ walks a golden-ratio
    low-discrepancy sequence over ``[EPS_LOW, EPS_HIGH]``.
    """
    quantiles = (np.arange(n_owners) + 0.5) / n_owners
    freqs = np.floor((1.0 - quantiles) ** (-1.0 / FREQ_SHAPE)).astype(np.int64)
    freqs = np.clip(freqs, 1, max(1, n_providers // 2))
    eps = EPS_LOW + (EPS_HIGH - EPS_LOW) * ((np.arange(n_owners) * _GOLDEN) % 1.0)
    order = np.random.default_rng(_TABLE_SEED).permutation(n_owners)
    return freqs[order], eps[order]


def make_dataset(n_owners: int, n_providers: int, seed: int) -> Dataset:
    """Truth matrix with exactly ``freq_j`` providers per owner.

    ``table position -> owner id`` is a seeded permutation; each owner's
    providers are the ``freq_j`` smallest of ``n_providers`` seeded keys.
    Keys are drawn in owner chunks so no temporary exceeds a few MB (one
    200 MB draw is first-touch-bound on this VM and varies 7x run to run).
    """
    rng = np.random.default_rng([seed, 1])
    freqs, eps = pair_table(n_owners, n_providers)
    owner_of = rng.permutation(n_owners)
    frequencies = np.empty(n_owners, dtype=np.int64)
    epsilons = np.empty(n_owners, dtype=np.float64)
    frequencies[owner_of] = freqs
    epsilons[owner_of] = eps
    truth = np.empty((n_providers, n_owners), dtype=np.uint8)
    chunk = 8192
    for start in range(0, n_owners, chunk):
        f = frequencies[start : start + chunk]
        keys = rng.random((f.size, n_providers))
        cut = np.take_along_axis(
            np.sort(keys, axis=1), (f - 1)[:, None], axis=1
        )
        truth[:, start : start + chunk] = (keys <= cut).T
    return Dataset(truth, epsilons, frequencies, owner_of)


def hot_owners(dataset: Dataset, hot: int) -> np.ndarray:
    """Owner ids of the hot set, rank 0 hottest.  Rank ``r`` always carries
    the same (frequency, ǫ) pair, whatever the seed."""
    positions = np.linspace(0, dataset.n_owners - 1, hot).astype(np.int64)
    return dataset.owner_of[positions]


def zipf_lap(hot_owners: np.ndarray, lap_ops: int, zipf_a: float) -> np.ndarray:
    """One lap's multiset of hot-set queries: rank ``r`` appears
    ``~ lap_ops * r^-a / H`` times (largest-remainder rounding, so the
    multiset -- and with it every byte count -- is the same in every lap)."""
    weights = (np.arange(hot_owners.size) + 1.0) ** (-zipf_a)
    shares = weights / weights.sum() * lap_ops
    counts = np.floor(shares).astype(np.int64)
    short = lap_ops - int(counts.sum())
    counts[np.argsort(-(shares - counts), kind="stable")[:short]] += 1
    return np.repeat(hot_owners, counts)


def point_laps(lap: np.ndarray, seed: int):
    """Endless seeded permutations of the lap multiset."""
    rng = np.random.default_rng([seed, 2])
    while True:
        yield rng.permutation(lap)


def cold_laps(n_owners: int, seed: int):
    """Endless laps over *all* owners: each lap is a seeded permutation of
    the lower half of the id space followed by one of the upper half, so an
    owner's reuse distance is never below ``n_owners / 2`` distinct owners
    -- far past the server's response cache."""
    rng = np.random.default_rng([seed, 3])
    half = n_owners // 2
    while True:
        yield np.concatenate(
            [rng.permutation(half), half + rng.permutation(n_owners - half)]
        )


@dataclass
class ChurnOp:
    kind: str  # "flip" | "upsert" | "remove"
    owner: int
    providers: tuple  # flip: (provider,), upsert: the new true set
    before: tuple  # the owner's true providers before this op


class ChurnSchedule:
    """Publish cycle after publish cycle of churn, in order: 70 % single-bit
    flips, 20 % upserts to a fresh three-provider set, 10 % removals, over
    distinct owners, applied to the harness's own copy of the truth.

    Stratified like the dataset: *which table positions* churn in cycle
    ``k``, how, and whether a flip sets or clears a bit come from a fixed
    stream, so the multiset of (frequency, ǫ) pairs after every cycle is
    the same for every seed; the seed decides which owner id sits at a
    position and which provider a flip or an upsert picks.  The mixing
    probability λ is a function of that multiset, so which cycles pay for
    a full selection closure (a fifth of them, 3x the wall) is a property
    of the workload, not of the seed.
    """

    def __init__(self, dataset: Dataset, churn_owners: int, seed: int):
        self.truth = dataset.truth.copy()
        self._owner_of = dataset.owner_of
        self._freqs = pair_table(dataset.n_owners, dataset.n_providers)[0].copy()
        self._churn_owners = churn_owners
        self._seed = seed
        self.cycles = 0

    def next_cycle(self) -> list[ChurnOp]:
        m, n = self.truth.shape
        shape = np.random.default_rng([_TABLE_SEED, 4, self.cycles])
        rng = np.random.default_rng([self._seed, 4, self.cycles])
        self.cycles += 1
        positions = shape.choice(n, size=self._churn_owners, replace=False)
        toss = shape.random(self._churn_owners)
        n_flip = (self._churn_owners * 7) // 10
        n_upsert = (self._churn_owners * 2) // 10
        ops = []
        for k, position in enumerate(positions.tolist()):
            owner = int(self._owner_of[position])
            column = self.truth[:, owner]
            before = tuple(np.flatnonzero(column).tolist())
            if k < n_flip:
                # A uniformly random bit of the column, toggled.
                clear = toss[k] < self._freqs[position] / m
                pool = before if clear else np.flatnonzero(column == 0).tolist()
                provider = pool[int(rng.integers(len(pool)))]
                column[provider] = 0 if clear else 1
                self._freqs[position] += -1 if clear else 1
                ops.append(ChurnOp("flip", owner, (provider,), before))
            elif k < n_flip + n_upsert:
                chosen = sorted(rng.choice(m, size=3, replace=False).tolist())
                column[:] = 0
                column[chosen] = 1
                self._freqs[position] = 3
                ops.append(ChurnOp("upsert", owner, tuple(chosen), before))
            else:
                column[:] = 0
                self._freqs[position] = 0
                ops.append(ChurnOp("remove", owner, (), before))
        return ops


def foreground_owners(n_owners: int, count: int, seed: int, cycle: int) -> list[int]:
    """The owners the foreground reader asks for during cycle ``cycle``'s
    rollout."""
    rng = np.random.default_rng([seed, 5, cycle])
    return rng.integers(n_owners, size=count).tolist()
