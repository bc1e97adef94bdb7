"""Compaction tests: merge correctness, epoch discipline, crash atomicity.

The headline fault injection SIGKILLs a real compactor process after it
has fully staged the merged snapshot but *before* ``os.replace`` publishes
it: the base snapshot must stay byte-identical (a partial compaction is
invisible), and a rerun must complete on the next epoch.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.serving.snapshot import (
    load_postings,
    save_snapshot,
    snapshot_epoch,
    snapshot_version,
)
from repro.updates import (
    Compactor,
    DeltaLog,
    SegmentError,
    compact_snapshot,
    load_segment,
    seal_segment,
)

N_PROVIDERS = 8
N_OWNERS = 16
KEY = b"\x02" * 16


def base_index() -> PostingsIndex:
    i, j = np.meshgrid(np.arange(N_PROVIDERS), np.arange(N_OWNERS), indexing="ij")
    matrix = ((i * 3 + j) % 5 == 0).astype(np.uint8)
    return PostingsIndex.from_dense(matrix, owner_names=[f"owner-{n}" for n in range(N_OWNERS)])


def make_base(tmp_path, epoch: int = 0) -> str:
    path = str(tmp_path / "base.npz")
    save_snapshot(base_index(), path, format_version=3, epoch=epoch)
    return path


def make_segment(tmp_path, name: str, base_epoch: int = 0, owner: int = 2):
    log_path = str(tmp_path / f"{name}.log")
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
        log.upsert(owner, [1, 4], beta=0.5, name=f"moved-{owner}")
        log.remove(5)
    path = str(tmp_path / f"{name}.seg.npz")
    seal_segment(log, path, base_epoch=base_epoch)
    return path


class TestCompactSnapshot:
    def test_merge_bumps_epoch_and_takes_the_segment_rows(self, tmp_path):
        base_path = make_base(tmp_path, epoch=3)
        seg_path = make_segment(tmp_path, "0001", base_epoch=3)
        out = str(tmp_path / "merged.npz")
        summary = compact_snapshot(base_path, [seg_path], out)
        assert summary.epoch == 4
        assert summary.consumed_segments == [seg_path]
        assert snapshot_epoch(out) == 4
        merged, base = load_postings(out), load_postings(base_path)
        segment = load_segment(seg_path)
        assert merged.n_owners == max(base.n_owners, segment.max_owner() + 1)
        for owner in range(merged.n_owners):
            row = segment.postings(owner)
            if row is not None:
                assert merged.query(owner) == row.tolist()
            elif owner < base.n_owners:
                assert merged.query(owner) == base.query(owner)
            else:
                assert merged.query(owner) == []

    def test_in_place_compaction_replaces_the_base(self, tmp_path):
        base_path = make_base(tmp_path)
        seg_path = make_segment(tmp_path, "0001")
        compact_snapshot(base_path, [seg_path])
        assert snapshot_epoch(base_path) == 1
        assert load_postings(base_path).query(5) == []  # the tombstone landed

    def test_epoch_mismatched_segment_refused(self, tmp_path):
        base_path = make_base(tmp_path, epoch=2)
        seg_path = make_segment(tmp_path, "0001", base_epoch=1)
        with pytest.raises(SegmentError, match="epoch 1.*epoch 2"):
            compact_snapshot(base_path, [seg_path])
        assert snapshot_epoch(base_path) == 2  # base untouched

    def test_v3_leader_and_copied_follower_compact_to_one_v4_file(self, tmp_path):
        """A fleet seeded with v3 takes the v3 -> v4 step on its first
        compaction: the leader through ``Compactor.run_once`` (segments it
        already loaded), the follower through ``compact_snapshot`` on a
        copy -- and the two files must still be the same bytes."""
        leader = make_base(tmp_path)
        follower = str(tmp_path / "follower.npz")
        shutil.copyfile(leader, follower)
        seg = make_segment(tmp_path, "0001")
        shutil.copyfile(seg, str(tmp_path / "follower-0001.seg"))
        Compactor(leader, str(tmp_path), min_segments=1).run_once()
        compact_snapshot(follower, [str(tmp_path / "follower-0001.seg")], follower)
        with open(leader, "rb") as a, open(follower, "rb") as b:
            assert hashlib.sha256(a.read()).digest() == hashlib.sha256(b.read()).digest()
        assert snapshot_version(leader) == 4
        assert load_postings(leader).indices.dtype == np.uint8

    def test_chained_epochs_compose(self, tmp_path):
        base_path = make_base(tmp_path)
        compact_snapshot(base_path, [make_segment(tmp_path, "0001", 0, owner=1)])
        compact_snapshot(base_path, [make_segment(tmp_path, "0002", 1, owner=9)])
        assert snapshot_epoch(base_path) == 2
        merged = load_postings(base_path)
        assert set(merged.query(1)) >= {1, 4}
        assert set(merged.query(9)) >= {1, 4}


class TestCompactorLoop:
    def test_run_once_below_threshold_is_a_no_op(self, tmp_path):
        base_path = make_base(tmp_path)
        compactor = Compactor(base_path, str(tmp_path), min_segments=2)
        make_segment(tmp_path, "0001.dontmatch", base_epoch=0)  # wrong suffix dir
        os.rename(
            str(tmp_path / "0001.dontmatch.seg.npz"),
            str(tmp_path / "only-one.seg.npz"),
        )
        assert compactor.run_once() is None
        assert compactor.compactions == 0

    def test_run_once_consumes_segments_after_publishing(self, tmp_path):
        base_path = make_base(tmp_path)
        seg = make_segment(tmp_path, "0001")
        compactor = Compactor(base_path, str(tmp_path), min_segments=1)
        assert compactor.pending() == [seg]
        summary = compactor.run_once()
        assert summary.epoch == 1
        assert not os.path.exists(seg)  # unlinked only after the replace
        assert compactor.pending() == []
        assert compactor.compactions == 1

    def test_failed_round_leaves_base_and_segments_alone(self, tmp_path):
        base_path = make_base(tmp_path, epoch=2)
        seg = make_segment(tmp_path, "0001", base_epoch=0)  # mismatched
        compactor = Compactor(base_path, str(tmp_path), min_segments=1)
        with pytest.raises(SegmentError):
            compactor.run_once()
        assert os.path.exists(seg)
        assert snapshot_epoch(base_path) == 2

    def test_background_thread_compacts_new_segments(self, tmp_path):
        base_path = make_base(tmp_path)
        with Compactor(
            base_path, str(tmp_path), min_segments=1, interval_s=0.02
        ).start() as compactor:
            make_segment(tmp_path, "0001")
            deadline = time.monotonic() + 10.0
            while compactor.compactions == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
        assert compactor.compactions >= 1
        assert snapshot_epoch(base_path) == 1

    def test_background_failures_are_recorded_then_cleared(self, tmp_path):
        """A wrong-epoch segment fails every background round: the loop
        stays alive, says so, and forgets it once a round succeeds."""
        base_path = make_base(tmp_path, epoch=2)
        with open(base_path, "rb") as f:
            base_bytes = f.read()
        seg = make_segment(tmp_path, "0001", base_epoch=0)  # mismatched
        interval_s = 0.02
        with Compactor(
            base_path, str(tmp_path), min_segments=1, interval_s=interval_s
        ).start() as compactor:
            deadline = time.monotonic() + 10.0
            while compactor.failed_rounds == 0 and time.monotonic() < deadline:
                time.sleep(2 * interval_s)
            assert compactor.failed_rounds >= 1
            assert isinstance(compactor.last_error, SegmentError)
            assert compactor.compactions == 0
            with open(base_path, "rb") as f:
                assert f.read() == base_bytes
            staging = tmp_path / "staging"
            staging.mkdir()
            os.replace(make_segment(staging, "0001", base_epoch=2), seg)
            while compactor.compactions == 0 and time.monotonic() < deadline:
                time.sleep(interval_s)
            assert compactor.compactions == 1
            assert snapshot_epoch(base_path) == 3
            # The clearing round may be this one or the idle one after it.
            while compactor.last_error is not None and time.monotonic() < deadline:
                time.sleep(interval_s)
            assert compactor.last_error is None
            assert compactor.failed_rounds == 0

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Compactor("b", "d", min_segments=0)
        with pytest.raises(ValueError):
            Compactor("b", "d", interval_s=0.0)


class TestDriftStats:
    """A compaction reports the drift an incremental β refresh consumes,
    read off the segments the merge loads -- nothing is read twice."""

    def test_run_once_returns_the_drift_triple(self, tmp_path):
        base_path = make_base(tmp_path)
        log_path = str(tmp_path / "drift.log")
        with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
            log.upsert(2, [1, 4], beta=0.5)
            log.upsert(2, [1, 4, 6], beta=0.75)  # same owner, two ops
            log.remove(5)
        seal_segment(log, str(tmp_path / "0001.seg.npz"), base_epoch=0)
        stats = Compactor(base_path, str(tmp_path), min_segments=1).run_once()
        assert stats.ops_applied == 3
        assert stats.owners_touched == 2  # net overlay entries
        assert stats.identities_dirtied == 2
        assert stats.dirty_owners == [2, 5]
        assert stats.tombstones == 1
        assert stats.n_segments == 1

    def test_an_owner_in_two_segments_is_touched_twice_dirtied_once(self, tmp_path):
        base_path = make_base(tmp_path)
        make_segment(tmp_path, "0001", owner=2)  # upsert 2 + remove 5
        log_path = str(tmp_path / "later.log")
        with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
            log.upsert(2, [0], beta=0.25)
        seal_segment(log, str(tmp_path / "0002.seg.npz"), base_epoch=0)
        stats = Compactor(base_path, str(tmp_path), min_segments=2).run_once()
        assert (stats.n_segments, stats.ops_applied) == (2, 3)
        assert stats.owners_touched == 3  # with multiplicity
        assert stats.identities_dirtied == 2
        assert stats.dirty_owners == [2, 5]
        assert stats.tombstones == 1

    def test_compact_snapshot_reports_what_run_once_reports(self, tmp_path):
        """One drift computation: the one-shot merge and the compactor
        round return the same stats for the same inputs."""
        base_path = make_base(tmp_path)
        copy = str(tmp_path / "copy.npz")
        shutil.copyfile(base_path, copy)
        seg = make_segment(tmp_path, "0001")
        direct = compact_snapshot(copy, [seg], str(tmp_path / "direct.npz"))
        stats = Compactor(base_path, str(tmp_path), min_segments=1).run_once()
        assert stats == direct
        assert stats.epoch == stats.base_epoch + 1 == 1
        assert stats.snapshot["n_owners"] == N_OWNERS

    def test_on_compaction_hook_sees_every_round(self, tmp_path):
        base_path = make_base(tmp_path)
        seen = []
        compactor = Compactor(
            base_path, str(tmp_path), min_segments=1,
            on_compaction=seen.append,
        )
        assert compactor.run_once() is None  # below threshold: no callback
        assert seen == []
        make_segment(tmp_path, "0001")
        stats = compactor.run_once()
        make_segment(tmp_path, "0002", base_epoch=1, owner=9)
        compactor.run_once()
        assert [s.epoch for s in seen] == [1, 2]
        assert seen[0] is stats
        assert seen[1].dirty_owners == [5, 9]


class TestCrashAtomicity:
    def test_sigkill_before_replace_is_invisible(self, tmp_path):
        """Kill a real compactor staged right before ``os.replace``."""
        base_path = make_base(tmp_path)
        seg_path = make_segment(tmp_path, "0001")
        with open(base_path, "rb") as f:
            base_bytes = f.read()

        child_code = textwrap.dedent(
            """
            import os, sys, time
            import repro.serving.snapshot as snap

            def stall_forever(src, dst):
                print("STAGED", flush=True)
                time.sleep(600)

            snap.os.replace = stall_forever
            from repro.updates import compact_snapshot
            compact_snapshot(sys.argv[1], [sys.argv[2]])
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [env.get("PYTHONPATH"), "src"])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", child_code, base_path, seg_path],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == "STAGED"
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

        # The partial compaction is invisible: base byte-identical, segment
        # still pending; at most a stray same-directory temp file remains.
        with open(base_path, "rb") as f:
            assert f.read() == base_bytes
        assert snapshot_epoch(base_path) == 0
        assert os.path.exists(seg_path)
        strays = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert len(strays) <= 1

        # The rerun completes on the next epoch as if nothing happened.
        summary = Compactor(base_path, str(tmp_path), min_segments=1).run_once()
        assert summary.epoch == 1
        assert snapshot_epoch(base_path) == 1
        assert not os.path.exists(seg_path)
