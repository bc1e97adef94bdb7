"""Incremental secure β maintenance vs a from-scratch MPC rerun.

PR 8's tentpole claim: once a construction is held open
(``secure_beta_calculation(..., keep_state=True)``), folding churn in with
:func:`~repro.mpc.betacalc.secure_beta_update` costs secure work
proportional to the *dirty set plus its selection closure*, not the
identity universe.  This benchmark measures that claim as a churn sweep --
0.1%, 1%, 10% and 100% of a >=10k-identity universe -- against the price
of simply rerunning the full two-phase construction, and pins three
properties per level:

* **exactness** -- the incremental β vector is byte-identical to a
  from-scratch run over the mutated bits with the held state's persisted
  decoy coins replayed (the equality the property suite proves in depth);
* **closed-form accounting** -- the measured count-phase GMW stats equal
  ``ConstructionCostModel.incremental_count_stats(dirty)`` field for
  field, so the analytical model prices an incremental pass exactly;
* **the saving** -- what incremental maintenance saves is secure *work*:
  at 1% churn the count phase costs at most a fifth of the all-dirty
  pass, in AND gates and in metered bits alike (22 464 against 529 960
  gates at 10k identities -- exact and deterministic, in quick mode too).
  Wall-clock times are reported, not floored: the bitsliced engine runs a
  whole fleet in one pass, so the simulation's wall time no longer tracks
  the secure work a deployment would pay for on the wire.

Churn is generated as *membership* churn -- one provider joins or leaves
each dirty identity, biased to keep the identity on its side of the
common threshold -- which is the common case for the paper's setting
(registrations trickle; an identity's commonality rarely flips).  λ still
drifts through the natural-decoy count, so the sweep exercises the
closure logic rather than dodging it; the per-level closure size is
reported alongside the speedup.

Writes ``benchmarks/results/BENCH_incremental.json`` (validated in CI by
``benchmarks/validate_bench_json.py incremental``).
"""

import json
import os
import pathlib
import random
import time

import numpy as np

from repro.analysis.cost_model import ConstructionCostModel
from repro.analysis.reporting import format_table
from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import secure_beta_calculation, secure_beta_update

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

INC_QUICK = os.environ.get("INC_BENCH_QUICK") == "1"
M = 8
COORDINATORS = 3
N_IDS = 2_000 if INC_QUICK else 10_000
CHURN_LEVELS = [0.001, 0.01, 0.1, 1.0]
MEMBERSHIP_P = 0.35
#: the count phase at 1% churn against the all-dirty (100%) pass, as a
#: fraction of its AND gates and of its metered bits -- both exact counts.
MAX_WORK_FRACTION_AT_1PCT = 0.2


def build_bits(rng: random.Random) -> list:
    return [
        [1 if rng.random() < MEMBERSHIP_P else 0 for _ in range(N_IDS)]
        for _ in range(M)
    ]


def membership_flip(bits: list, j: int, threshold: int, rng: random.Random):
    """One provider joins or leaves identity ``j``, keeping it on its
    side of the common threshold when the frequency allows."""
    ones = [i for i in range(M) if bits[i][j]]
    zeros = [i for i in range(M) if not bits[i][j]]
    freq = len(ones)
    if freq >= threshold:
        if freq > threshold and ones:
            bits[rng.choice(ones)][j] = 0
        elif zeros:
            bits[rng.choice(zeros)][j] = 1
    else:
        if freq + 1 < threshold and zeros:
            bits[rng.choice(zeros)][j] = 1
        elif ones:
            bits[rng.choice(ones)][j] = 0


def run_churn_sweep(seed: int = 0) -> dict:
    policy = BasicPolicy()
    rng = random.Random(seed)
    bits = build_bits(rng)
    epsilons = [rng.choice([0.15, 0.3, 0.6]) for _ in range(N_IDS)]

    # The held construction the increments fold into.
    held = secure_beta_calculation(
        bits,
        epsilons,
        policy,
        COORDINATORS,
        random.Random(seed + 1),
        engine="batch",
        keep_state=True,
    )
    state = held.state
    threshold = state.high_threshold

    # The yardstick: one timed from-scratch rerun of the same universe.
    t0 = time.perf_counter()
    secure_beta_calculation(
        bits,
        epsilons,
        policy,
        COORDINATORS,
        random.Random(seed + 1),
        engine="batch",
    )
    full_s = time.perf_counter() - t0

    model = ConstructionCostModel(
        m=M,
        n_identities=N_IDS,
        c=COORDINATORS,
        common_sigma_threshold=state.common_sigma_threshold,
    )

    rows = []
    for level in CHURN_LEVELS:
        k = max(1, int(N_IDS * level))
        dirty = sorted(rng.sample(range(N_IDS), k))
        for j in dirty:
            membership_flip(bits, j, threshold, rng)
        t1 = time.perf_counter()
        result = secure_beta_update(state, bits, dirty, random.Random(seed + 2))
        inc_s = time.perf_counter() - t1
        info = result.incremental

        # Exactness: the incremental pass equals a from-scratch run over
        # the mutated bits with the held coins replayed (same engine).
        scratch = secure_beta_calculation(
            bits,
            epsilons,
            policy,
            COORDINATORS,
            random.Random(seed + 3),
            engine="batch",
            coins=state.coins,
        )
        assert np.array_equal(result.betas, scratch.betas), level
        assert list(state.publish_as_one) == list(scratch.selection_result.publish_as_one)

        # Closed-form accounting: the analytical model prices the count
        # phase of this exact pass, gate for gate and bit for bit.
        predicted = model.incremental_count_stats(dirty)
        measured = result.count_result.stats
        for field in ("and_gates", "bits_sent", "messages", "rounds"):
            assert getattr(predicted, field) == getattr(measured, field), (
                level,
                field,
                getattr(predicted, field),
                getattr(measured, field),
            )

        rows.append(
            {
                "churn": level,
                "dirty": len(info.dirty),
                "closure": len(info.closure),
                "lambda_moved": info.lambda_before != info.lambda_after,
                "incremental_s": inc_s,
                "full_s": full_s,
                "speedup": full_s / inc_s,
                "count_and_gates": measured.and_gates,
                "count_bits_sent": measured.bits_sent,
            }
        )
    return {"rows": rows, "full_s": full_s}


def test_incremental_construction_sweep(benchmark, report):
    results = benchmark.pedantic(run_churn_sweep, rounds=1, iterations=1)
    rows = results["rows"]
    report(
        f"Incremental β maintenance: delta-restricted MPC vs full rerun "
        f"(m={M}, n={N_IDS}, c={COORDINATORS}"
        f"{', quick' if INC_QUICK else ''})",
        format_table(
            [
                "churn",
                "dirty",
                "closure",
                "inc-ms",
                "full-ms",
                "speedup",
                "count-ands",
            ],
            [
                [
                    f"{row['churn']:.1%}",
                    row["dirty"],
                    row["closure"],
                    row["incremental_s"] * 1e3,
                    row["full_s"] * 1e3,
                    row["speedup"],
                    row["count_and_gates"],
                ]
                for row in rows
            ],
        ),
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    by_level = {row["churn"]: row for row in rows}
    payload = {
        "benchmark": "incremental_construction",
        "quick_mode": INC_QUICK,
        "m": M,
        "c": COORDINATORS,
        "n_ids": N_IDS,
        "churn_levels": CHURN_LEVELS,
        "full_s": results["full_s"],
        "rows": rows,
        "max_work_fraction_at_1pct": MAX_WORK_FRACTION_AT_1PCT,
        "gates_fraction_at_1pct": by_level[0.01]["count_and_gates"]
        / by_level[1.0]["count_and_gates"],
        "bits_fraction_at_1pct": by_level[0.01]["count_bits_sent"]
        / by_level[1.0]["count_bits_sent"],
    }
    (RESULTS_DIR / "BENCH_incremental.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Secure work shrank with the dirty set...
    assert rows[0]["count_and_gates"] < rows[-1]["count_and_gates"]
    # ...every level stayed byte-exact (asserted in the sweep) and sane...
    for row in rows:
        assert row["dirty"] <= row["closure"] <= N_IDS
        assert row["incremental_s"] > 0
    # ...and 1% churn pays at most a fifth of the all-dirty secure work.
    assert payload["gates_fraction_at_1pct"] <= MAX_WORK_FRACTION_AT_1PCT, payload
    assert payload["bits_fraction_at_1pct"] <= MAX_WORK_FRACTION_AT_1PCT, payload
