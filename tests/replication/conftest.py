"""Fixtures for the replication-plane tests.

A tiny but non-trivial leader world: an epoch-0 base snapshot, a delta
log, and helpers to seal segments against a chosen epoch.  The noise key
is fixed so every sealed row is deterministic -- the byte-identity
arguments the replication plane rests on need that.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.serving.snapshot import save_snapshot
from repro.updates import DeltaLog, seal_segment

KEY = b"\x2a" * 16
N_PROVIDERS = 8
N_OWNERS = 24


def base_index() -> PostingsIndex:
    i, j = np.meshgrid(np.arange(N_PROVIDERS), np.arange(N_OWNERS), indexing="ij")
    return PostingsIndex.from_dense(((i + j) % 3 == 0).astype(np.uint8))


def seal(tmp_path, name: str, base_epoch: int, ops) -> str:
    """Write one sealed segment from a throwaway delta log."""
    log_path = str(tmp_path / f"{name}.log")
    seg_path = str(tmp_path / "segments" / name)
    os.makedirs(str(tmp_path / "segments"), exist_ok=True)
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
        for op in ops:
            if op[0] == "upsert":
                log.upsert(op[1], sorted(op[2]), beta=op[3])
            elif op[0] == "remove":
                log.remove(op[1])
            else:
                log.flip(op[1], sorted(op[2]), sorted(op[3]), beta=op[4])
        seal_segment(log, seg_path, base_epoch=base_epoch)
    os.unlink(log_path)
    return seg_path


@pytest.fixture
def world(tmp_path):
    """Leader base snapshot (epoch 0) + a follower seed copy of it."""
    leader = str(tmp_path / "leader.npz")
    follower = str(tmp_path / "follower.npz")
    save_snapshot(base_index(), leader, format_version=3, epoch=0)
    shutil.copyfile(leader, follower)
    return {
        "tmp": tmp_path,
        "leader_snapshot": leader,
        "follower_snapshot": follower,
        "segment_dir": str(tmp_path / "segments"),
        "index": base_index(),
    }
