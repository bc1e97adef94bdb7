"""Golden parity of the secure-construction outputs across refactors.

Per (seed, triple source), one ``keep_state=True`` construction followed by
two ``secure_beta_update`` passes -- the first moves λ (an identity turns
common, the closure widens), the second does not (closure = dirty set) --
is pinned in two parts:

* ``data/betacalc_golden.json`` -- the public outputs: β, publish bits,
  decoy coins, λ, opened frequencies.  Recorded on the commit *before* the
  clear-text half of Alg. 1 went array-native and never re-recorded since:
  a change that moves a coin or an output shows up here.
* ``data/betacalc_metered.json`` -- what the passes put on the wire: setup,
  offline and online bits and the online rounds.  A change to the circuits
  or the schedule moves these and nothing in the outputs.

Re-record the metered part (only when a wire-cost change is intended) with
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

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_PATH = os.path.join(DATA, "betacalc_golden.json")
METERED_PATH = os.path.join(DATA, "betacalc_metered.json")

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
    """Type-agnostic fingerprint of one pass's public outputs: lists and
    arrays hash alike."""
    state = result.state
    opened = sorted((int(j), int(f)) for j, f in result.opened_frequencies.items())
    return {
        "betas": _sha(result.betas, np.float64),
        "publish_as_one": _sha(result.publish_as_one, np.uint8),
        "state_publish_as_one": _sha(state.publish_as_one, np.uint8),
        "coins": _sha(state.coins, np.uint8),
        "opened_frequencies": _sha(opened, np.int64),
        "thresholds": _sha(result.thresholds, np.int64),
        "lambda": struct.pack("<d", float(result.lambda_)).hex(),
        "n_selected": int(sum(int(b) for b in result.publish_as_one)),
    }


def metered(result) -> dict:
    """What one pass put on the wire, per phase."""
    if result.phases is not None:
        setup = result.phases.setup.bits_sent
        offline = result.phases.offline.bits_sent
    else:
        setup = offline = 0
    online = [result.count_result.stats, result.selection_result.stats]
    return {
        "setup_bits": int(setup),
        "offline_bits": int(offline),
        "online_bits": sum(int(stats.bits_sent) for stats in online),
        "online_rounds": sum(int(stats.rounds) for stats in online),
    }


def run_case(seed: int, source: str) -> tuple[dict, dict]:
    """The three passes' ``(outputs, metered)`` records, each taken as its
    pass returns (the held state threads through and changes)."""
    bits, eps = make_inputs(seed)
    outputs, wire = {}, {}

    def record(name, result):
        outputs[name] = digest(result)
        wire[name] = metered(result)
        if result.incremental is not None:
            outputs[name]["closure"] = len(result.incremental.closure)

    full = secure_beta_calculation(
        bits, eps, ChernoffPolicy(0.9), C, random.Random(seed),
        triple_source=source, keep_state=True,
    )
    record("full", full)
    state = full.state

    # Pass 1: a rare identity becomes universal -> n_common moves -> λ moves.
    riser = N - 1
    for row in bits:
        row[riser] = 1
    moved = secure_beta_update(
        state, bits, [riser], random.Random(seed + 1000), triple_source=source
    )
    assert moved.incremental.lambda_after != moved.incremental.lambda_before
    record("update_lambda_moves", moved)

    # Pass 2: two rare identities trade one provider -> λ stays put.
    a, b = N - 2, N - 3
    bits[0][a] ^= 1
    bits[1][b] ^= 1
    still = secure_beta_update(
        state, bits, [a, b], random.Random(seed + 2000), triple_source=source
    )
    assert still.incremental.lambda_after == still.incremental.lambda_before
    record("update_lambda_still", still)
    return outputs, wire


def case_key(seed: int, source: str) -> str:
    # The keys keep the engine tag the entries were recorded under, when a
    # scalar engine was still pinned beside the bitsliced one.
    return f"seed={seed}/engine=batch/source={source}"


CASES = [(s, t) for s in SEEDS for t in SOURCES]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load(GOLDEN_PATH)


@pytest.fixture(scope="module")
def metered_record() -> dict:
    return _load(METERED_PATH)


@pytest.fixture(scope="module")
def runs() -> dict:
    return {case_key(*case): run_case(*case) for case in CASES}


@pytest.mark.parametrize("seed,source", CASES)
def test_matches_recorded_parent(golden, runs, seed, source):
    assert runs[case_key(seed, source)][0] == golden[case_key(seed, source)]


@pytest.mark.parametrize("seed,source", CASES)
def test_metered_matches_record(metered_record, runs, seed, source):
    assert runs[case_key(seed, source)][1] == metered_record[case_key(seed, source)]


def test_golden_covers_every_case(golden, metered_record):
    expected = sorted(case_key(*case) for case in CASES)
    assert sorted(golden) == expected
    assert sorted(metered_record) == expected


if __name__ == "__main__":
    recorded = {case_key(*case): run_case(*case)[1] for case in CASES}
    with open(METERED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} cases -> {METERED_PATH}")
