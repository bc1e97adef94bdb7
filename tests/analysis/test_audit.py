"""Tests for the owner-facing privacy audit."""

import numpy as np
import pytest

from repro.analysis.audit import audit_index
from repro.core.errors import ModelError
from repro.core.model import MembershipMatrix


@pytest.fixture
def matrix():
    m = MembershipMatrix(10, 3)
    m.set(0, 0)
    m.set(1, 0)  # owner 0: freq 2
    m.set(4, 1)  # owner 1: freq 1
    for pid in range(10):
        m.set(pid, 2)  # owner 2: broadcast by truth
    return m


def published_from(matrix, noise):
    published = matrix.to_dense().copy()
    for pid, oid in noise:
        published[pid, oid] = 1
    return published


class TestAudit:
    def test_per_owner_numbers(self, matrix):
        published = published_from(matrix, [(2, 0), (3, 0)])  # 2 noise for o0
        eps = np.array([0.5, 0.0, 0.6])
        audit = audit_index(matrix, published, eps, owner_names=["a", "b", "c"])
        o0 = audit.owners[0]
        assert o0.name == "a"
        assert o0.true_frequency == 2
        assert o0.published_size == 4
        assert o0.false_positive_rate == pytest.approx(0.5)
        assert o0.attacker_confidence == pytest.approx(0.5)
        assert o0.satisfied  # fp 0.5 >= eps 0.5

    def test_violation_detected(self, matrix):
        published = published_from(matrix, [])  # no noise at all
        eps = np.array([0.5, 0.3, 0.0])
        audit = audit_index(matrix, published, eps)
        violators = audit.violators()
        assert {v.owner_id for v in violators} == {0, 1}
        assert audit.worst_violation == pytest.approx(0.5)

    def test_broadcast_flagged(self, matrix):
        published = published_from(matrix, [])
        eps = np.zeros(3)
        audit = audit_index(matrix, published, eps)
        assert audit.owners[2].broadcast
        assert audit.broadcast_count == 1

    def test_success_ratio_matches_privacy_module(self, matrix, np_rng):
        from repro.core.privacy import evaluate_index

        published = published_from(matrix, [(5, 0), (6, 1), (7, 1)])
        eps = np.array([0.2, 0.6, 0.1])
        audit = audit_index(matrix, published, eps)
        report = evaluate_index(matrix, published, eps)
        assert audit.success_ratio == pytest.approx(report.success_ratio)

    def test_epsilon_count_checked(self, matrix):
        with pytest.raises(ModelError):
            audit_index(matrix, matrix.to_dense(), np.zeros(2))

    def test_name_count_checked(self, matrix):
        with pytest.raises(ModelError):
            audit_index(matrix, matrix.to_dense(), np.zeros(3), owner_names=["x"])

    def test_cli_audit_command(self, tmp_path, capsys):
        from repro.cli import main

        ds = tmp_path / "d.json"
        idx = tmp_path / "i.npz"
        assert main([
            "generate", "--kind", "zipf", "--providers", "30", "--owners", "40",
            "--output", str(ds),
        ]) == 0
        assert main([
            "construct", "--dataset", str(ds), "--output", str(idx),
        ]) == 0
        capsys.readouterr()
        assert main(["audit", "--dataset", str(ds), "--index", str(idx)]) == 0
        out = capsys.readouterr().out
        assert "success ratio" in out
        assert "violators" in out
