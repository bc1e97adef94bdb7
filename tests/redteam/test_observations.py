"""Observation log: framing, golden bytes, and live harvesting.

Its crash-recovery cases run beside the delta log's, against the one
record file, in ``tests/updates/test_deltalog.py::TestCrashRecovery``.
"""

import asyncio
import os
import struct
import zlib

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.redteam.observations import (
    LiveObserver,
    Observation,
    ObservationLog,
    ObservationLogError,
)
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.server import PPIServer

GOLDEN_OBS = os.path.join(
    os.path.dirname(__file__), "data", "golden_observations_v1.obs"
)
# The observations pinned in ``data/golden_observations_v1.obs``.
GOLDEN_OPS = [
    (0, 7, [3, 1, 2]),
    (1, 7, [1, 2]),
    (0, 9, []),
    (5, 4_294_967_301, [65_536, 0]),
]


class TestObservationLog:
    def test_in_memory_append_and_views(self):
        log = ObservationLog()
        log.append(0, 7, [3, 1, 2])
        log.append(1, 7, [1, 2])
        log.append(0, 9, [5])
        assert log.n_records == 3
        assert log.epochs() == [0, 1]
        assert log.owners() == [7, 9]
        by_owner = log.by_owner()
        assert by_owner[7][0] == frozenset({1, 2, 3})
        assert by_owner[7][1] == frozenset({1, 2})
        assert by_owner[9] == {0: frozenset({5})}

    def test_records_are_normalized(self):
        log = ObservationLog()
        log.append(2, 1, (np.int64(4), 0, 4))
        record = log.observations[-1]
        assert isinstance(record, Observation)
        assert record.providers == frozenset({0, 4})
        assert all(isinstance(p, int) for p in record.providers)

    def test_newest_observation_wins_within_epoch(self):
        log = ObservationLog()
        log.append(0, 1, [1, 2])
        log.append(0, 1, [2])
        assert log.by_owner()[1][0] == frozenset({2})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "campaign.obs"
        with ObservationLog(str(path)) as log:
            log.append(0, 3, [1, 9])
            log.append(4, 3, [9])
        reopened = ObservationLog(str(path))
        assert reopened.n_records == 2
        assert reopened.by_owner()[3] == {
            0: frozenset({1, 9}),
            4: frozenset({9}),
        }
        reopened.close()

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "campaign.obs"
        with ObservationLog(str(path)) as log:
            log.append(0, 1, [2])
        with ObservationLog(str(path)) as log:
            log.append(1, 1, [2, 3])
            assert log.n_records == 2
        final = ObservationLog(str(path))
        assert final.epochs() == [0, 1]
        final.close()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.obs"
        path.write_bytes(b"NOTANOBSLOG0000")
        with pytest.raises(ObservationLogError):
            ObservationLog(str(path))

    def test_rejects_negative_ids(self):
        log = ObservationLog()
        with pytest.raises(ObservationLogError):
            log.append(-1, 0, [1])
        with pytest.raises(ObservationLogError):
            log.append(0, -2, [1])


class TestGoldenBytes:
    """The observation-log format is frozen like the delta log's."""

    def test_magic_header_and_first_record_are_pinned(self):
        with open(GOLDEN_OBS, "rb") as f:
            blob = f.read()
        assert blob[:14] == b"EPPIOBS1" + struct.pack(">I", 2) + b"{}"
        first = struct.pack(">QQI", 0, 7, 3) + struct.pack(">3i", 1, 2, 3)
        assert blob[14:22] == struct.pack(">II", len(first), zlib.crc32(first))
        assert blob[22 : 22 + len(first)] == first

    def test_opening_gives_the_expected_observations(self):
        with ObservationLog(GOLDEN_OBS) as log:
            assert log.repaired_bytes == 0
            assert log.observations == [
                Observation(epoch, owner, frozenset(ids))
                for epoch, owner, ids in GOLDEN_OPS
            ]

    def test_replaying_the_observations_reproduces_the_file(self, tmp_path):
        path = tmp_path / "replay.obs"
        with ObservationLog(str(path)) as log:
            for epoch, owner, ids in GOLDEN_OPS:
                log.append(epoch, owner, ids)
        with open(GOLDEN_OBS, "rb") as golden:
            assert path.read_bytes() == golden.read()


class TestLiveObserver:
    def test_harvest_records_served_epochs(self):
        dense = np.zeros((8, 4), dtype=np.uint8)
        dense[1, 0] = dense[3, 0] = 1
        dense[2, 1] = 1
        next_dense = dense.copy()
        next_dense[5, 1] = 1

        async def body():
            server = await PPIServer(
                PostingsIndex.from_dense(dense)
            ).start()
            client = LocatorClient(
                servers=[server.address],
                cache_size=0,
                retry=RetryPolicy(max_retries=2, timeout_s=2.0),
            )
            log = ObservationLog()
            observer = LiveObserver(client, log)
            try:
                assert await observer.harvest(range(4)) == 4
                server.swap_index(
                    PostingsIndex.from_dense(next_dense), epoch=1
                )
                assert await observer.harvest(range(4)) == 4
            finally:
                await client.close()
                await server.stop()
            return log

        log = asyncio.run(body())
        assert log.epochs() == [0, 1]
        per_epoch = log.by_owner()[1]
        assert per_epoch[0] == frozenset({2})
        assert per_epoch[1] == frozenset({2, 5})
        # epoch tags come from the wire, one response per owner per epoch
        assert log.n_records == 8
