"""Golden parity of the secure-construction outputs across refactors.

``data/betacalc_golden.json`` pins, per (seed, triple source), the
public outputs and the metered bits of one ``keep_state=True`` construction
followed by two ``secure_beta_update`` passes -- the first moves λ (an
identity turns common, the closure widens), the second does not (closure =
dirty set).  The file was recorded on the commit *before* the clear-text
half of Alg. 1 went array-native; any change that moves a coin, a share or
a metered bit shows up as a digest mismatch here.

Re-record (only when an output change is intended) with
``PYTHONPATH=src python tests/mpc/test_betacalc_golden.py``.
"""

import hashlib
import json
import os
import random
import struct

import numpy as np
import pytest

from repro.core.policies import ChernoffPolicy
from repro.mpc.betacalc import secure_beta_calculation, secure_beta_update

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "betacalc_golden.json")

M, N, C = 16, 48, 3
SEEDS = (7, 23)
SOURCES = ("dealer", "factory")
EPS_TIERS = (0.1, 0.3, 0.5, 0.8)


def make_inputs(seed: int):
    """A skewed network: a few near-universal identities, a long rare tail."""
    rng = random.Random(seed)
    bits = [[0] * N for _ in range(M)]
    for j in range(N):
        if j < 4:
            freq = M - rng.randint(0, 1)
        else:
            freq = rng.randint(0, M // 3)
        for i in rng.sample(range(M), freq):
            bits[i][j] = 1
    eps = [rng.choice(EPS_TIERS) for _ in range(N)]
    return bits, eps


def _sha(arr, dtype) -> str:
    return hashlib.sha256(np.asarray(arr, dtype=dtype).tobytes()).hexdigest()


def digest(result) -> dict:
    """Type-agnostic fingerprint of one pass: lists and arrays hash alike."""
    state = result.state
    opened = sorted((int(j), int(f)) for j, f in result.opened_frequencies.items())
    if result.phases is not None:
        setup = result.phases.setup.bits_sent
        offline = result.phases.offline.bits_sent
        online = result.phases.online.bits_sent
    else:
        setup = offline = 0
        online = (
            result.count_result.stats.bits_sent
            + result.selection_result.stats.bits_sent
        )
    return {
        "betas": _sha(result.betas, np.float64),
        "publish_as_one": _sha(result.publish_as_one, np.uint8),
        "state_publish_as_one": _sha(state.publish_as_one, np.uint8),
        "coins": _sha(state.coins, np.uint8),
        "opened_frequencies": _sha(opened, np.int64),
        "thresholds": _sha(result.thresholds, np.int64),
        "lambda": struct.pack("<d", float(result.lambda_)).hex(),
        "n_selected": int(sum(int(b) for b in result.publish_as_one)),
        "setup_bits": int(setup),
        "offline_bits": int(offline),
        "online_bits": int(online),
    }


def run_case(seed: int, source: str) -> dict:
    bits, eps = make_inputs(seed)
    full = secure_beta_calculation(
        bits, eps, ChernoffPolicy(0.9), C, random.Random(seed),
        triple_source=source, keep_state=True,
    )
    out = {"full": digest(full)}
    state = full.state

    # Pass 1: a rare identity becomes universal -> n_common moves -> λ moves.
    riser = N - 1
    for row in bits:
        row[riser] = 1
    moved = secure_beta_update(
        state, bits, [riser], random.Random(seed + 1000), triple_source=source
    )
    assert moved.incremental.lambda_after != moved.incremental.lambda_before
    out["update_lambda_moves"] = digest(moved)
    out["update_lambda_moves"]["closure"] = len(moved.incremental.closure)

    # Pass 2: two rare identities trade one provider -> λ stays put.
    a, b = N - 2, N - 3
    bits[0][a] ^= 1
    bits[1][b] ^= 1
    still = secure_beta_update(
        state, bits, [a, b], random.Random(seed + 2000), triple_source=source
    )
    assert still.incremental.lambda_after == still.incremental.lambda_before
    out["update_lambda_still"] = digest(still)
    out["update_lambda_still"]["closure"] = len(still.incremental.closure)
    return out


def case_key(seed: int, source: str) -> str:
    # The keys keep the engine tag the entries were recorded under, when a
    # scalar engine was still pinned beside the bitsliced one.
    return f"seed={seed}/engine=batch/source={source}"


CASES = [(s, t) for s in SEEDS for t in SOURCES]


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed,source", CASES)
def test_matches_recorded_parent(golden, seed, source):
    assert run_case(seed, source) == golden[case_key(seed, source)]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


if __name__ == "__main__":
    recorded = {case_key(*case): run_case(*case) for case in CASES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} cases -> {GOLDEN_PATH}")
