"""Shared schema + floor checks for ``benchmarks/results/BENCH_*.json``.

Every CI smoke job runs its benchmark in quick mode and then validates the
JSON artifact it wrote.  The checks used to live as per-job heredocs in
``.github/workflows/ci.yml``, where they drifted from the benchmarks that
produce the files; this module is the single home for all of them::

    python benchmarks/validate_bench_json.py mpc
    python benchmarks/validate_bench_json.py wire incremental
    python benchmarks/validate_bench_json.py --all   # every file present

Each validator takes the decoded JSON and returns a one-line summary
(printed on success); any failed ``assert`` makes the process exit
non-zero, failing the job.  Floors (minimum speedups, pause ratios) are
read out of the artifact itself -- the benchmark that wrote the file
decided quick-mode vs full-mode floors, the validator only holds it to
its own claim.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def validate_mpc(data: dict) -> str:
    assert data["benchmark"] == "mpc_batch_construction"
    assert data["rows"], "empty benchmark trajectory"
    for row in data["rows"]:
        assert row["rounds_per_identity"] > 0
        assert row["bits_per_identity"] > 0
    assert data["rows"][-1]["speedup"] >= data["min_speedup_required"]
    return f"speedups {[round(r['speedup'], 2) for r in data['rows']]}"


def validate_index(data: dict) -> str:
    assert data["benchmark"] == "index_engine_serving"
    assert data["rows"], "empty benchmark trajectory"
    for row in data["rows"]:
        assert row["owners"] > 0 and row["nnz"] > 0
        assert row["csr_p50_us"] > 0 and row["csr_p99_us"] >= row["csr_p50_us"]
        assert row["dense_bytes"] > row["csr_bytes"]
        assert row["query_many_qps"] > 0
    top = data["rows"][-1]
    assert top["query_many_speedup"] >= data["min_query_many_speedup"]
    assert top["boot_speedup"] >= data["min_boot_speedup"]
    return (
        "query_many speedups "
        f"{[round(r['query_many_speedup'], 1) for r in data['rows']]}"
    )


def validate_offline(data: dict) -> str:
    assert data["benchmark"] == "mpc_offline_pipeline"
    assert data["triple_words_total"] > 0
    schedules = [r["schedule"] for r in data["rows"]]
    assert schedules == ["dealer", "sequential", "pipelined"]
    for row in data["rows"]:
        assert row["wall_s"] > 0
    seq, pipe = data["rows"][1], data["rows"][2]
    assert seq["offline_bytes"] > 0 and pipe["offline_bytes"] > 0
    assert seq["online_rounds"] == pipe["online_rounds"]
    assert seq["triple_words"] == pipe["triple_words"]
    assert pipe["offline_hidden_s"] > 0
    assert 0.0 <= pipe["utilization"] <= 1.0
    speedup = data["speedup_pipelined_vs_sequential"]
    assert speedup > 0
    return (
        f"{speedup:.2f}x pipelined (reported, no floor), "
        f"{pipe['offline_hidden_s']:.3f}s offline hidden, "
        f"utilization {pipe['utilization']:.2f}"
    )


def validate_updates(data: dict) -> str:
    assert data["benchmark"] == "live_update_churn"
    apply = data["apply"]
    assert apply["n_deltas"] >= 1000
    assert 0 < apply["apply_p50_us"] <= data["max_apply_p50_us"]
    assert apply["seal_s"] > 0 and apply["compact_s"] > 0
    rows = data["reload_pause"]
    assert len(rows) >= 2 and rows[-1]["owners"] > rows[0]["owners"]
    for row in rows:
        assert row["queries"] > 0 and row["pause_ms"] > 0
    ratio = rows[-1]["pause_ms"] / rows[0]["pause_ms"]
    assert (
        rows[-1]["pause_ms"] <= data["pause_floor_ms"]
        or ratio <= data["max_pause_ratio"]
    )
    rolling = data["rolling"]
    assert rolling["lost_queries"] == 0
    assert rolling["stale_responses"] == 0
    assert (
        rolling["rolling_p99_ms"] <= data["rolling_floor_ms"]
        or rolling["rolling_p99_ms"]
        <= data["max_rolling_p99_ratio"] * rolling["steady_p99_ms"]
    )
    return (
        f"apply p50 {apply['apply_p50_us']:.0f}us, pause ratio "
        f"{ratio:.2f}, rolling p99 {rolling['rolling_p99_ms']:.1f}ms"
    )


def validate_wire(data: dict) -> str:
    assert data["benchmark"] == "wire_protocol"
    assert data["server_protocols"] == [1, 2]
    assert set(data["modes"]) == {"query", "batch"}
    for mode, legs in data["modes"].items():
        for proto in ("v1", "v2"):
            leg = legs[proto]
            assert leg["errors"] == 0, (mode, proto)
            assert leg["qps"] > 0 and leg["qps_per_core"] > 0
            assert leg["p50_ms"] <= leg["p99_ms"]
        assert legs["speedup"] > 0
    assert data["headline_speedup"] >= data["min_speedup_required"]
    return f"batch v2/v1 {data['modes']['batch']['speedup']:.2f}x"


def validate_incremental(data: dict) -> str:
    assert data["benchmark"] == "incremental_construction"
    assert data["n_ids"] >= 1000 and data["full_s"] > 0
    assert [r["churn"] for r in data["rows"]] == data["churn_levels"]
    for row in data["rows"]:
        assert 1 <= row["dirty"] <= row["closure"] <= data["n_ids"]
        assert row["incremental_s"] > 0 and row["speedup"] > 0
        assert row["count_and_gates"] > 0 and row["count_bits_sent"] > 0
    # Secure work must shrink with the dirty set.
    assert data["rows"][0]["count_and_gates"] < data["rows"][-1]["count_and_gates"]
    # The saving is secure work, in exact counts: 1% churn against all-dirty.
    by_level = {row["churn"]: row for row in data["rows"]}
    ceiling = data["max_work_fraction_at_1pct"]
    for field, key in (
        ("count_and_gates", "gates_fraction_at_1pct"),
        ("count_bits_sent", "bits_fraction_at_1pct"),
    ):
        assert data[key] == by_level[0.01][field] / by_level[1.0][field]
        assert data[key] <= ceiling, (key, data[key])
    return (
        f"{data['gates_fraction_at_1pct']:.1%} of the all-dirty AND gates at "
        f"1% churn over {data['n_ids']} identities (ceiling {ceiling:.0%})"
    )


def validate_replication(data: dict) -> str:
    assert data["benchmark"] == "replication_catch_up"
    assert data["owners"] > 0 and data["providers"] > 0
    assert [r["churn"] for r in data["rows"]] == data["churn_levels"]
    floor = data["min_bytes_ratio_at_1pct"]
    for row in data["rows"]:
        assert 1 <= row["touched"] <= data["owners"]
        assert 0 < row["delta_bytes"] < row["snapshot_bytes"] or row["churn"] > 0.01
        assert row["bytes_ratio"] > 0 and row["catch_up_s"] > 0
        assert row["wan_delta_s"] > 0 and row["wan_snapshot_s"] > 0
        if row["churn"] <= 0.01:
            assert row["bytes_ratio"] >= floor, (row["churn"], row["bytes_ratio"])
            assert row["wan_speedup"] > 1.0
    # Lower churn must stream fewer bytes relative to the snapshot.
    assert data["rows"][0]["bytes_ratio"] > data["rows"][-1]["bytes_ratio"]
    assert data["bytes_ratio_at_1pct"] >= floor
    rollout = data["rollout"]
    assert rollout["reads"] >= 3 * rollout["sampled_owners"] > 0
    assert rollout["stale_reads"] == 0
    assert rollout["follower_catch_up_s"] > 0
    return (
        f"{data['bytes_ratio_at_1pct']:.1f}x fewer bytes at 1% churn "
        f"(floor {floor}x), {rollout['reads']} rollout reads, 0 stale"
    )


def validate_attacks(data: dict) -> str:
    assert data["benchmark"] == "redteam_attacks"
    assert data["epochs"] >= 5
    assert [r["churn"] for r in data["rows"]] == data["churn_levels"]
    max_delta = data["max_sticky_delta"]
    floor = data["min_naive_degradation"]
    for row in data["rows"]:
        sticky, naive = row["sticky"], row["naive"]
        for cell in (sticky, naive):
            assert cell["epochs_observed"] >= 5
            assert cell["observations"] > 0
            assert len(cell["stable_curve"]) == cell["epochs_observed"]
        # Sticky is flat and diff-precise; naive climbs monotonically and
        # ends materially worse -- the benchmark's reason to exist.
        assert abs(sticky["degradation"]) <= max_delta, row["churn"]
        assert sticky["false_churn_owners"] == 0
        assert sticky["diff_precision"] == 1.0
        curve = naive["stable_curve"]
        assert all(b >= a - 1e-6 for a, b in zip(curve, curve[1:]))
        assert naive["degradation"] >= floor, (row["churn"], naive)
        assert curve[-1] >= sticky["stable_curve"][-1]
        # Tier ordering only holds while noise survives, i.e. under sticky
        # coins; naive's tiers all converge to ~1.0 once stripped.
        tiers = sticky["per_tier_success"]
        assert tiers["strict"] <= tiers["relaxed"], tiers
    worst = max(r["naive"]["degradation"] for r in data["rows"])
    flattest = max(abs(r["sticky"]["degradation"]) for r in data["rows"])
    return (
        f"sticky drift <= {flattest:+.3f}, naive degradation up to "
        f"{worst:+.3f} over {data['epochs']} epochs (floor {floor})"
    )


CHECKS = {
    "attacks": ("BENCH_attacks.json", validate_attacks),
    "mpc": ("BENCH_mpc.json", validate_mpc),
    "replication": ("BENCH_replication.json", validate_replication),
    "index": ("BENCH_index.json", validate_index),
    "offline": ("BENCH_offline.json", validate_offline),
    "updates": ("BENCH_updates.json", validate_updates),
    "wire": ("BENCH_wire.json", validate_wire),
    "incremental": ("BENCH_incremental.json", validate_incremental),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "benchmarks",
        nargs="*",
        choices=[*sorted(CHECKS), []],
        help="which artifacts to validate (default with --all: all present)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="validate every known artifact that exists on disk",
    )
    args = parser.parse_args(argv)
    names = list(args.benchmarks)
    if args.all:
        names = [
            name
            for name, (filename, _) in sorted(CHECKS.items())
            if (RESULTS_DIR / filename).exists()
        ]
    if not names:
        parser.error("name at least one benchmark, or pass --all")
    failed = 0
    for name in names:
        filename, check = CHECKS[name]
        path = RESULTS_DIR / filename
        try:
            summary = check(json.loads(path.read_text()))
        except FileNotFoundError:
            print(f"{filename}: MISSING (run the {name} benchmark first)")
            failed += 1
            continue
        except AssertionError as exc:
            print(f"{filename}: INVALID ({exc!r})")
            failed += 1
            continue
        print(f"{filename} valid: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
