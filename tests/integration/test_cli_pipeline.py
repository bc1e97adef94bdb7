"""Integration: the full CLI pipeline on one dataset, all commands chained."""

import numpy as np
import pytest

from repro.cli import load_dataset, main
from repro.serving.snapshot import load_snapshot


def same_index(a, b) -> bool:
    """Both snapshots hold the same published ``M'`` and owner names."""
    a, b = load_snapshot(str(a)), load_snapshot(str(b))
    return np.array_equal(a.to_dense(), b.to_dense()) and a.owner_names == b.owner_names


@pytest.fixture
def workspace(tmp_path):
    ds = tmp_path / "network.json"
    idx = tmp_path / "index.npz"
    assert main([
        "generate", "--kind", "zipf", "--providers", "60", "--owners", "150",
        "--seed", "11", "--output", str(ds),
    ]) == 0
    assert main([
        "construct", "--dataset", str(ds), "--output", str(idx),
        "--policy", "chernoff", "--gamma", "0.9", "--seed", "12",
    ]) == 0
    return ds, idx


class TestPipeline:
    def test_construct_then_audit_consistent(self, workspace, capsys):
        ds, idx = workspace
        capsys.readouterr()
        assert main(["audit", "--dataset", str(ds), "--index", str(idx)]) == 0
        out = capsys.readouterr().out
        ratio = float(out.split("success ratio:")[1].split()[0])
        assert ratio >= 0.8  # Chernoff 0.9 on a healthy dataset

    def test_attack_classifies_eps_private(self, workspace, capsys):
        ds, idx = workspace
        capsys.readouterr()
        assert main(["attack", "--dataset", str(ds), "--index", str(idx)]) == 0
        out = capsys.readouterr().out
        assert "degree: eps-private" in out

    def test_query_recall_against_ground_truth(self, workspace, capsys):
        ds, idx = workspace
        network = load_dataset(str(ds))
        matrix = network.membership_matrix()
        for owner in network.owners[:10]:
            capsys.readouterr()
            assert main([
                "query", "--index", str(idx), "--owner", owner.name,
            ]) == 0
            out = capsys.readouterr().out
            listed = set()
            lines = out.strip().splitlines()
            if len(lines) > 1 and lines[1].strip():
                listed = {int(tok) for tok in lines[1].split()}
            assert matrix.providers_of(owner.owner_id) <= listed

    def test_reconstruct_same_seed_same_index(self, workspace, tmp_path):
        ds, idx = workspace
        idx2 = tmp_path / "index2.npz"
        assert main([
            "construct", "--dataset", str(ds), "--output", str(idx2),
            "--policy", "chernoff", "--gamma", "0.9", "--seed", "12",
        ]) == 0
        assert same_index(idx, idx2)

    def test_different_seed_different_noise(self, workspace, tmp_path):
        ds, idx = workspace
        idx2 = tmp_path / "index2.npz"
        assert main([
            "construct", "--dataset", str(ds), "--output", str(idx2),
            "--seed", "99",
        ]) == 0
        assert not same_index(idx, idx2)

    def test_inc_exp_policy_flag(self, workspace, tmp_path, capsys):
        ds, _ = workspace
        out_path = tmp_path / "incexp.npz"
        assert main([
            "construct", "--dataset", str(ds), "--output", str(out_path),
            "--policy", "inc-exp", "--delta", "0.05",
        ]) == 0
        assert "inc-exp" in capsys.readouterr().out
