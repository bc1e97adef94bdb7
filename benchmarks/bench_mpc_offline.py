"""Offline-pipeline benchmark: pipelined triple factory vs sequential baseline.

Runs the full secure β calculation (SecSumShare + CountBelow + selection,
bitsliced) three ways over the same inputs and seed:

* **dealer** -- the trusted dealer reference (no offline phase);
* **sequential** -- dealerless offline phase run to completion *before*
  the online phase starts (factory pre-filled via ``join_producers``), the
  classic offline-then-online schedule;
* **pipelined** -- the factory streams triples concurrently with (and
  ahead of) the online phase, so offline cost hides behind online work.

Asserts the paper-level invariants:

* all three runs produce byte-identical β vectors and identical online
  bits/rounds accounting (triple provenance never leaks into results);
* pipelining hides offline work behind the online phase
  (``offline_hidden_s > 0``, utilization in [0, 1]).  The ratio to the
  sequential schedule is reported, not floored: the pipelined wall is
  pinned by the factory's wire model, so the ratio only measures how slow
  the online engine is, and shrinks every time that engine gets faster.
  ``OFFLINE_BENCH_QUICK=1`` (the CI smoke job) sizes the run down to 512
  identities.

Emits a machine-readable comparison to
``benchmarks/results/BENCH_offline.json``.
"""

import json
import os
import pathlib
import random
import statistics
import time

import numpy as np

from repro.analysis.cost_model import ConstructionCostModel
from repro.analysis.reporting import format_table
from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import DEFAULT_OFFLINE_SEED, secure_beta_calculation
from repro.mpc.countbelow import COIN_BITS
from repro.mpc.offline.factory import TripleFactory

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

M = 64  # providers
C = 3  # coordinators / MPC parties
QUICK = os.environ.get("OFFLINE_BENCH_QUICK") == "1"
N_IDENTITIES = 512 if QUICK else 1000
PRODUCERS = 2


def _inputs(seed: int):
    rng = random.Random(seed + N_IDENTITIES)
    bits = [[rng.randint(0, 1) for _ in range(N_IDENTITIES)] for _ in range(M)]
    epsilons = [rng.random() for _ in range(N_IDENTITIES)]
    return bits, epsilons


def _run(bits, epsilons, seed, **kwargs):
    start = time.perf_counter()
    result = secure_beta_calculation(
        bits,
        epsilons,
        BasicPolicy(),
        c=C,
        rng=random.Random(seed),
        **kwargs,
    )
    return result, time.perf_counter() - start


def run_comparison(seed: int = 0, trials: int = 3):
    bits, epsilons = _inputs(seed)

    # Reference: trusted dealer, no offline phase.  Its λ tells us the
    # selection stage's exact triple demand for the sequential prefill.
    dealer, dealer_t = _run(bits, epsilons, seed)

    model = ConstructionCostModel(M, N_IDENTITIES, C, producers=PRODUCERS)
    lambda_scaled = round(dealer.lambda_ * (1 << COIN_BITS))
    total_words = model.total_words(lambda_scaled)

    # Interleave the two measured schedules over ``trials`` repetitions and
    # compare medians, so a single scheduler hiccup in either schedule does
    # not swing the reported ratio.
    seq_times, pipe_times = [], []
    for _ in range(trials):
        # Sequential baseline: produce every triple first, then go online.
        seq_start = time.perf_counter()
        factory = TripleFactory(
            parties=C,
            seed=DEFAULT_OFFLINE_SEED,  # the pipelined run's factory seed
            target_words=total_words,
            producers=PRODUCERS,
            capacity_words=total_words,
        ).start()
        try:
            factory.join_producers()
            sequential, _ = _run(
                bits, epsilons, seed, triple_source="factory", factory=factory
            )
        finally:
            factory.close()
        seq_times.append(time.perf_counter() - seq_start)

        # Pipelined: the auto-managed factory starts producing immediately
        # and streams under the online phase (count quota up front,
        # selection quota topped up once λ is public).
        pipelined, pipe_t = _run(
            bits,
            epsilons,
            seed,
            triple_source="factory",
            offline_producers=PRODUCERS,
        )
        pipe_times.append(pipe_t)

        # Triple provenance must never leak into results: byte-identical β
        # and identical online accounting across all three schedules.
        assert np.array_equal(dealer.betas, sequential.betas)
        assert np.array_equal(dealer.betas, pipelined.betas)
        assert (
            dealer.publish_as_one
            == sequential.publish_as_one
            == pipelined.publish_as_one
        )
        for a, b in ((dealer, sequential), (dealer, pipelined)):
            assert a.count_result.stats == b.count_result.stats
            assert a.selection_result.stats == b.selection_result.stats
        assert sequential.phases is not None and pipelined.phases is not None

    sequential_t = statistics.median(seq_times)
    pipelined_t = statistics.median(pipe_times)
    speedup = sequential_t / pipelined_t if pipelined_t > 0 else float("inf")
    rows = []
    for name, elapsed, result in (
        ("dealer", dealer_t, dealer),
        ("sequential", sequential_t, sequential),
        ("pipelined", pipelined_t, pipelined),
    ):
        row = {
            "schedule": name,
            "wall_s": elapsed,
            "identities": N_IDENTITIES,
            "providers": M,
            "parties": C,
        }
        if result.phases is not None:
            p = result.phases
            row.update(
                {
                    "offline_wall_s": p.offline.wall_time_s,
                    "offline_hidden_s": p.offline.hidden_time_s,
                    "online_wall_s": p.online.wall_time_s,
                    "setup_bytes": p.setup.bytes_sent,
                    "offline_bytes": p.offline.bytes_sent,
                    "online_bytes": p.online.bytes_sent,
                    "online_rounds": p.online.rounds,
                    "triple_words": p.triple_words_consumed,
                    "stall_s": p.stall_time_s,
                    "utilization": p.utilization,
                }
            )
        rows.append(row)
    summary = {
        "speedup_pipelined_vs_sequential": speedup,
        "triple_words_total": total_words,
        "offline_bits_model": model.offline(total_words).bits_sent,
        "setup_bits_model": model.setup().bits_sent,
        "online_bits_model": model.online(lambda_scaled).bits_sent,
    }
    return rows, summary


def test_offline_pipeline_speedup(benchmark, report):
    rows, summary = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    report(
        f"Pipelined offline factory vs sequential baseline "
        f"(m={M}, c={C}, n={N_IDENTITIES})",
        format_table(
            ["schedule", "wall_s", "offline_hidden_s", "online_wall_s", "utilization"],
            [
                [
                    r["schedule"],
                    f"{r['wall_s']:.3f}",
                    f"{r.get('offline_hidden_s', 0.0):.3f}",
                    f"{r.get('online_wall_s', 0.0):.3f}",
                    f"{r.get('utilization', 0.0):.3f}",
                ]
                for r in rows
            ],
        )
        + f"\nspeedup (sequential/pipelined): "
        f"{summary['speedup_pipelined_vs_sequential']:.2f}x",
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "mpc_offline_pipeline",
        "quick_mode": QUICK,
        "providers": M,
        "parties": C,
        "identities": N_IDENTITIES,
        "producers": PRODUCERS,
        "engine": "batch",  # the one secure-evaluation engine
        "rows": rows,
        **summary,
    }
    (RESULTS_DIR / "BENCH_offline.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    pipelined = rows[2]
    assert pipelined["offline_hidden_s"] > 0, pipelined
    assert 0.0 <= pipelined["utilization"] <= 1.0, pipelined
