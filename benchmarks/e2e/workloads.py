"""Frozen workload constants.  Changing one changes what every recorded
number means: re-measure the baseline (``calibrate.py``) in the same change.

``FULL`` is what ``BENCHMARK.json`` runs; ``QUICK`` is the tiny-scale path
``selftest.py`` drives end to end in under a minute.
"""

from __future__ import annotations

WORKLOADS = ("read_point", "read_batch_cold", "churn_rollout", "construct")

# A timed phase never ends before MIN_SLICES slices (read workloads: thousands
# of ops each) or MIN_OPS ops (churn_rollout and construct: one op per slice).
MIN_SLICES = 10
MIN_OPS = 20
# The single-stream workloads take their rate and latency from the quietest
# QUIET_OPS consecutive ops of the phase (README, *Quiet windows*).
QUIET_OPS = 3
CONNECTIONS = 2  # closed loop: one generator process, two sockets, nproc = 2
GAMMA = 0.9  # Chernoff policy confidence for the read snapshot
COORDINATORS = 3  # c, the MPC collusion-tolerance parameter
SERVER_SLAB_ENTRIES = 4096  # PPIServer's response_cache_size default

FULL = {
    "read": {
        "owners": 100_000,
        "providers": 256,
        # read_point: Zipf(a) over a hot set that fits the server's slab.
        "hot": 2_048,
        "zipf_a": 1.1,
        "lap_ops": 32_768,  # one lap touches every hot owner at least once
        "slice_ops": 4_096,
        # read_batch_cold: laps over all owners in batches.
        "batch": 128,
        "slice_batches": 71,  # 781 full batches per lap = 11 slices
        "warm_batches": 16,
        "sweep_batch": 256,
        "ping_per_slice": 32,
        "replay_ops": 4_096,
        "replay_batches": 96,
    },
    "churn_rollout": {
        "owners": 20_000,
        "providers": 64,
        "churn_owners": 200,  # 1 % of the owners per publish cycle
        "foreground_reads": 64,
        "exact_cycles": 20,
    },
    "construct": {
        "identities": 5_000,
        "providers": 64,
        "producers": 2,
        "exact_ops": 20,
    },
}

QUICK = {
    "read": {
        "owners": 20_000,  # half the ids must still exceed twice the slab
        "providers": 32,
        "hot": 256,
        "zipf_a": 1.1,
        "lap_ops": 2_048,
        "slice_ops": 256,
        "batch": 32,
        "slice_batches": 25,
        "warm_batches": 4,
        "sweep_batch": 256,
        "ping_per_slice": 8,
        "replay_ops": 256,
        "replay_batches": 16,
    },
    "churn_rollout": {
        "owners": 1_000,
        "providers": 16,
        "churn_owners": 20,
        "foreground_reads": 16,
        "exact_cycles": 10,
    },
    "construct": {
        "identities": 200,
        "providers": 16,
        "producers": 2,
        "exact_ops": 10,
    },
}


def config(workload: str, quick: bool) -> dict:
    table = QUICK if quick else FULL
    return table["read" if workload.startswith("read_") else workload]
