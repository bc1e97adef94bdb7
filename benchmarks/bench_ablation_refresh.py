"""Ablation: index refresh — fresh noise vs sticky noise.

The paper's repeated-attack resistance (Sec. III-C) relies on the index
being static.  This bench quantifies what happens when the index is
reconstructed k times: with *fresh* randomness the multi-version
intersection attack strips the noise (attacker confidence → 1), while the
sticky-noise extension (keyed per-owner flip coins,
`repro/updates/noise.py`) pins the intersection to the first version.
"""

import numpy as np

from repro.analysis.reporting import format_series
from repro.attacks.intersection import intersection_attack
from repro.core.publication import publish_matrix
from repro.datasets.synthetic import exact_frequency_matrix
from repro.updates import StickyOwnerStream

M = 300
N_IDS = 50
BETA = 0.4
VERSION_COUNTS = [1, 2, 4, 8, 16]


def sticky_publish(matrix, betas, stream: StickyOwnerStream) -> np.ndarray:
    """One sticky version: every owner's row through its keyed stream."""
    published = np.zeros((matrix.n_providers, matrix.n_owners), dtype=np.uint8)
    for j in range(matrix.n_owners):
        row = stream.publish_row(
            j, sorted(matrix.providers_of(j)), float(betas[j]), matrix.n_providers
        )
        published[row, j] = 1
    return published


def run_refresh_ablation(seed: int = 0):
    rng = np.random.default_rng(seed)
    freqs = [int(f) for f in np.random.default_rng(seed + 1).integers(2, 10, N_IDS)]
    matrix = exact_frequency_matrix(M, freqs, rng)
    betas = np.full(N_IDS, BETA)
    stream = StickyOwnerStream(bytes([seed % 256]) * 16)

    fresh_versions = [
        publish_matrix(matrix, betas, rng) for _ in range(max(VERSION_COUNTS))
    ]
    sticky_versions = [
        sticky_publish(matrix, betas, stream) for _ in range(max(VERSION_COUNTS))
    ]

    series = {"fresh-noise": [], "sticky-noise": []}
    for k in VERSION_COUNTS:
        series["fresh-noise"].append(
            intersection_attack(matrix, fresh_versions[:k]).mean_confidence
        )
        series["sticky-noise"].append(
            intersection_attack(matrix, sticky_versions[:k]).mean_confidence
        )
    return series


def test_ablation_refresh_intersection(benchmark, report):
    series = benchmark.pedantic(run_refresh_ablation, rounds=1, iterations=1)
    report(
        "Ablation: intersection-attack confidence vs republication count "
        f"(m={M}, beta={BETA})",
        format_series("versions", VERSION_COUNTS, series),
    )
    fresh, sticky = series["fresh-noise"], series["sticky-noise"]
    # Fresh noise erodes: confidence climbs toward certainty.
    assert fresh[-1] > 0.95
    assert all(a <= b + 1e-9 for a, b in zip(fresh, fresh[1:]))
    # Sticky noise: confidence never grows past the single-version level.
    assert sticky[-1] == sticky[0]
