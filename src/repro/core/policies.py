"""β-calculation policies (paper Sec. III-B-1).

Randomized publication flips each negative bit to a false positive with
probability β_j; these policies pick β_j so the realized false-positive rate
``fp_j = X / (X + σ_j m)`` meets the owner's privacy degree ``ǫ_j`` with the
policy's success guarantee:

* :class:`BasicPolicy` (Eq. 3)
  ``β_b = [(σ⁻¹ − 1)(ǫ⁻¹ − 1)]⁻¹`` -- meets the requirement *in expectation*,
  i.e. with ≈ 50 % success ratio.
* :class:`IncrementedExpectationPolicy` (Eq. 4)
  ``β_d = β_b + Δ`` -- a configurable bump whose mapping to an actual success
  ratio is workload-dependent (the paper's criticism of it).
* :class:`ChernoffPolicy` (Eq. 5 / Thm. 3.1)
  ``β_c ≥ β_b + G + sqrt(G² + 2 β_b G)`` with
  ``G = ln(1/(1−γ)) / ((1−σ) m)`` -- statistically guarantees
  ``Pr(fp_j ≥ ǫ_j) ≥ γ`` for any configured γ > 0.5.

All policies clamp to [0, 1]; β = 1 means the identity is published by every
provider (it is effectively *common*, triggering the mixing defence of
:mod:`repro.core.mixing`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.errors import PolicyError

__all__ = [
    "BetaPolicy",
    "BasicPolicy",
    "IncrementedExpectationPolicy",
    "ChernoffPolicy",
    "basic_beta",
    "chernoff_beta",
    "sigma_threshold",
    "frequency_threshold",
    "frequency_thresholds",
]


def basic_beta(sigma: float, epsilon: float) -> float:
    """Expectation-based β (Eq. 3), clamped to [0, 1].

    Edge cases: σ = 0 (owner absent -- nothing to protect, β = 0);
    σ = 1 or ǫ = 1 force β = 1 (only full broadcast satisfies the degree).
    """
    if not 0.0 <= sigma <= 1.0:
        raise PolicyError(f"sigma must be in [0, 1], got {sigma}")
    if not 0.0 <= epsilon <= 1.0:
        raise PolicyError(f"epsilon must be in [0, 1], got {epsilon}")
    if sigma == 0.0 or epsilon == 0.0:
        return 0.0
    if sigma == 1.0 or epsilon == 1.0:
        return 1.0
    beta = 1.0 / ((1.0 / sigma - 1.0) * (1.0 / epsilon - 1.0))
    return min(1.0, beta)


def chernoff_beta(sigma: float, epsilon: float, gamma: float, m: int) -> float:
    """Chernoff-bound β (Eq. 5), clamped to [0, 1]."""
    if not 0.5 < gamma < 1.0:
        raise PolicyError(f"gamma must be in (0.5, 1), got {gamma}")
    if m < 1:
        raise PolicyError(f"provider count must be >= 1, got {m}")
    beta_b = basic_beta(sigma, epsilon)
    if beta_b == 0.0:
        return 0.0
    if beta_b >= 1.0 or sigma >= 1.0:
        return 1.0
    g = math.log(1.0 / (1.0 - gamma)) / ((1.0 - sigma) * m)
    beta_c = beta_b + g + math.sqrt(g * g + 2.0 * beta_b * g)
    return min(1.0, beta_c)


class BetaPolicy(ABC):
    """Strategy interface: map (σ_j, ǫ_j, m) to a publishing probability."""

    #: short machine name used by benchmarks / reports
    name: str = "abstract"

    @abstractmethod
    def beta(self, sigma: float, epsilon: float, m: int) -> float:
        """β for one identity."""

    def beta_vector(
        self, sigmas: np.ndarray, epsilons: np.ndarray, m: int
    ) -> np.ndarray:
        """Vectorized β over identity arrays (default: per-element loop)."""
        sigmas = np.asarray(sigmas, dtype=float)
        epsilons = np.asarray(epsilons, dtype=float)
        if sigmas.shape != epsilons.shape:
            raise PolicyError("sigma/epsilon arrays must have matching shapes")
        return np.array(
            [
                self.beta(s, e, m)
                for s, e in zip(sigmas.ravel().tolist(), epsilons.ravel().tolist())
            ]
        ).reshape(sigmas.shape)


@dataclass
class BasicPolicy(BetaPolicy):
    """Expectation-based policy β_b (Eq. 3): ~50 % success ratio."""

    name: str = "basic"

    def beta(self, sigma: float, epsilon: float, m: int) -> float:
        return basic_beta(sigma, epsilon)

    def beta_vector(self, sigmas, epsilons, m: int) -> np.ndarray:
        sigmas = np.asarray(sigmas, dtype=float)
        epsilons = np.asarray(epsilons, dtype=float)
        if sigmas.shape != epsilons.shape:
            raise PolicyError("sigma/epsilon arrays must have matching shapes")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            beta = 1.0 / ((1.0 / sigmas - 1.0) * (1.0 / epsilons - 1.0))
        beta = np.where((sigmas == 0.0) | (epsilons == 0.0), 0.0, beta)
        beta = np.where((sigmas == 1.0) | (epsilons == 1.0), 1.0, beta)
        return np.clip(beta, 0.0, 1.0)


@dataclass
class IncrementedExpectationPolicy(BetaPolicy):
    """β_d = β_b + Δ (Eq. 4); Δ has no principled link to a success ratio."""

    delta: float = 0.02
    name: str = "inc-exp"

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise PolicyError(f"delta must be >= 0, got {self.delta}")

    def beta(self, sigma: float, epsilon: float, m: int) -> float:
        base = basic_beta(sigma, epsilon)
        if base == 0.0:
            return 0.0
        return min(1.0, base + self.delta)

    def beta_vector(self, sigmas, epsilons, m: int) -> np.ndarray:
        base = BasicPolicy().beta_vector(sigmas, epsilons, m)
        return np.where(base > 0.0, np.clip(base + self.delta, 0.0, 1.0), 0.0)


@dataclass
class ChernoffPolicy(BetaPolicy):
    """β_c (Eq. 5): guarantees ``Pr(fp ≥ ǫ) ≥ gamma`` (Thm. 3.1)."""

    gamma: float = 0.9
    name: str = "chernoff"

    def __post_init__(self) -> None:
        if not 0.5 < self.gamma < 1.0:
            raise PolicyError(f"gamma must be in (0.5, 1), got {self.gamma}")

    def beta(self, sigma: float, epsilon: float, m: int) -> float:
        return chernoff_beta(sigma, epsilon, self.gamma, m)

    def beta_vector(self, sigmas, epsilons, m: int) -> np.ndarray:
        beta_b = BasicPolicy().beta_vector(sigmas, epsilons, m)
        sigmas = np.asarray(sigmas, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = math.log(1.0 / (1.0 - self.gamma)) / ((1.0 - sigmas) * m)
            beta_c = beta_b + g + np.sqrt(g * g + 2.0 * beta_b * g)
        beta_c = np.where(beta_b == 0.0, 0.0, beta_c)
        beta_c = np.where((beta_b >= 1.0) | (sigmas >= 1.0), 1.0, beta_c)
        return np.clip(beta_c, 0.0, 1.0)


def _sigma_thresholds(policy: "BetaPolicy", epsilons: np.ndarray, m: int) -> np.ndarray:
    """Smallest σ per ǫ at which ``policy.beta_vector(σ, ǫ, m) >= 1``.

    One 60-step bisection run elementwise over the whole ǫ vector -- valid
    because every policy's β is non-decreasing in σ.  Entries where even
    σ = 1 keeps β below 1 (never common, e.g. ǫ = 0) come back as 1.0.
    """
    bad = ~((epsilons >= 0.0) & (epsilons <= 1.0))
    if bad.any():
        raise PolicyError(f"epsilon must be in [0, 1], got {epsilons[bad][0]}")
    ones = np.ones_like(epsilons)
    reachable = policy.beta_vector(ones, epsilons, m) >= 1.0
    lo, hi = np.zeros_like(epsilons), ones
    for _ in range(60):
        mid = (lo + hi) / 2.0
        common = policy.beta_vector(mid, epsilons, m) >= 1.0
        hi = np.where(common, mid, hi)
        lo = np.where(common, lo, mid)
    return np.where(reachable, hi, 1.0)


def sigma_threshold(policy: "BetaPolicy", epsilon: float, m: int) -> float:
    """Smallest σ at which ``policy.beta(σ, ǫ, m) >= 1`` (the common-identity
    frequency threshold σ' of Alg. 1, line 2).

    For the basic policy this has the closed form σ' = 1 − ǫ; the general
    case is solved by bisection.  Returns 1.0 if even σ = 1 keeps β below 1.
    """
    return float(_sigma_thresholds(policy, np.array([epsilon], dtype=float), m)[0])


def frequency_thresholds(policy: "BetaPolicy", epsilons, m: int) -> np.ndarray:
    """Integer frequency thresholds ``t_j = ceil(σ'_j · m)`` used by CountBelow,
    for a whole ǫ vector at once (int64 array, clamped to ``[1, m + 1]``).

    A custom policy without a ``beta_vector`` override runs the base class's
    per-element loop inside each bisection step.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 1:
        raise PolicyError(f"expected a 1-D epsilon vector, got shape {epsilons.shape}")
    sigmas = _sigma_thresholds(policy, epsilons, m)
    return np.clip(np.ceil(sigmas * m - 1e-9).astype(np.int64), 1, m + 1)


def frequency_threshold(policy: "BetaPolicy", epsilon: float, m: int) -> int:
    """Integer frequency threshold ``t = ceil(σ' · m)`` for one ǫ."""
    return int(frequency_thresholds(policy, [epsilon], m)[0])
