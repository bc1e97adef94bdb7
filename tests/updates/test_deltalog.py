"""Delta-log tests: framing, replay, validation, crash recovery.

The write-ahead-log contract under test: every append is an independently
crc-framed record, reopening replays the net per-owner state, and a torn
tail (crash mid-append) is detected and truncated without disturbing the
records behind it.  The crash cases run against both codecs of the one
record file -- the delta log and the red team's observation log.
"""

import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.redteam.observations import ObservationLog, ObservationLogError
from repro.updates import (
    OP_FLIP,
    OP_REMOVE,
    OP_UPSERT,
    DeltaLog,
    DeltaLogError,
    seal_segment,
)

N_PROVIDERS = 8
GOLDEN_LOG = os.path.join(os.path.dirname(__file__), "data", "golden_deltalog_v1.log")
GOLDEN_KEY = bytes(range(16))


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "updates.log")


class TestCreateOpen:
    def test_create_then_open_round_trips_header(self, log_path):
        log = DeltaLog.create(log_path, N_PROVIDERS, noise_key=b"k" * 16)
        log.close()
        reopened = DeltaLog.open(log_path)
        assert reopened.n_providers == N_PROVIDERS
        assert reopened.noise_key == b"k" * 16
        assert len(reopened) == 0
        assert reopened.repaired_bytes == 0

    def test_create_refuses_to_clobber(self, log_path):
        DeltaLog.create(log_path, N_PROVIDERS).close()
        with pytest.raises(DeltaLogError, match="already exists"):
            DeltaLog.create(log_path, N_PROVIDERS)

    def test_create_generates_a_key_when_absent(self, log_path):
        log = DeltaLog.create(log_path, N_PROVIDERS)
        assert len(log.noise_key) >= 16
        log.close()
        assert DeltaLog.open(log_path).noise_key == log.noise_key

    def test_create_rejects_empty_universe_and_key(self, tmp_path):
        with pytest.raises(DeltaLogError, match="at least one provider"):
            DeltaLog.create(str(tmp_path / "a.log"), 0)
        with pytest.raises(DeltaLogError, match="non-empty"):
            DeltaLog.create(str(tmp_path / "b.log"), 3, noise_key=b"")

    def test_constructor_is_gated(self, log_path):
        with pytest.raises(DeltaLogError, match="create"):
            DeltaLog(log_path, N_PROVIDERS, b"k")

    def test_open_rejects_non_logs(self, tmp_path):
        junk = tmp_path / "junk.log"
        junk.write_bytes(b"not a delta log at all")
        with pytest.raises(DeltaLogError, match="bad magic"):
            DeltaLog.open(str(junk))
        with pytest.raises(DeltaLogError, match="cannot read"):
            DeltaLog.open(str(tmp_path / "missing.log"))


class TestAppendReplay:
    def test_upsert_remove_flip_accumulate(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            assert log.upsert(3, [1, 5, 2], beta=0.4, name="alice") == 0
            assert log.upsert(9, [0], beta=0.7) == 1
            assert log.remove(9) == 2
            assert log.flip(3, set_providers=[7], clear_providers=[5]) == 3
        state = DeltaLog.open(log_path).state()
        assert state[3].providers == {1, 2, 7}
        assert state[3].beta == 0.4
        assert state[3].name == "alice"
        assert not state[3].removed
        assert state[9].removed
        assert state[9].providers == set()

    def test_flip_without_prior_truth_needs_beta(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            with pytest.raises(DeltaLogError, match="needs a beta"):
                log.flip(4, set_providers=[1])
            log.flip(4, set_providers=[1], beta=0.5)
            assert log.state()[4].providers == {1}
            assert log.state()[4].beta == 0.5

    def test_flip_after_remove_also_needs_beta(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(4, [1], beta=0.5)
            log.remove(4)
            with pytest.raises(DeltaLogError, match="needs a beta"):
                log.flip(4, set_providers=[2])

    def test_provider_ids_are_range_checked(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            with pytest.raises(DeltaLogError, match="out of range"):
                log.upsert(1, [N_PROVIDERS], beta=0.5)
            with pytest.raises(DeltaLogError, match="out of range"):
                log.flip(1, set_providers=[-1], beta=0.5)

    def test_beta_and_owner_are_validated(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            with pytest.raises(DeltaLogError, match="beta"):
                log.upsert(1, [0], beta=1.5)
            with pytest.raises(DeltaLogError, match="invalid owner"):
                log.upsert(-2, [0], beta=0.5)
            with pytest.raises(DeltaLogError, match="unknown delta op"):
                log.append({"op": "sideways", "owner": 1})

    @pytest.mark.parametrize("owner", [2**63, 2**64])
    def test_owner_ids_past_int64_are_refused_and_nothing_is_written(
        self, owner, log_path, tmp_path
    ):
        """Segments store owners as int64: an id past it, once acknowledged,
        would break every later seal of the log."""
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(1, [0], beta=0.5)
            size = os.path.getsize(log_path)
            for append in (
                lambda: log.upsert(owner, [0], beta=0.5),
                lambda: log.remove(owner),
                lambda: log.flip(owner, set_providers=[1], beta=0.5),
            ):
                with pytest.raises(DeltaLogError, match="invalid owner"):
                    append()
            assert (len(log), os.path.getsize(log_path)) == (1, size)
            log.upsert(2**63 - 1, [2], beta=0.5)  # the largest id still seals
            summary = seal_segment(log, str(tmp_path / "s.seg.npz"), base_epoch=0)
        assert summary["n_entries"] == 2
        assert sorted(DeltaLog.open(log_path).state()) == [1, 2**63 - 1]

    def test_records_rescans_what_was_written(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(2, [0, 3], beta=0.25, name="bob")
            log.remove(5)
            log.flip(2, set_providers=[4])
        log = DeltaLog.open(log_path)
        records = list(log.records())
        assert [r["op"] for r in records] == [OP_UPSERT, OP_REMOVE, OP_FLIP]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[0]["providers"] == [0, 3]

    def test_reopen_then_append_continues_the_sequence(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(1, [0], beta=0.5)
        with DeltaLog.open(log_path) as log:
            assert log.upsert(2, [1], beta=0.5) == 1
        assert len(DeltaLog.open(log_path)) == 2


@dataclass(frozen=True)
class LogKind:
    """One codec over the record file, driven through the same crash cases;
    record ``k`` names owner ``k``."""

    name: str
    error: type
    create: Callable[[str], Any]
    reopen: Callable[[str], Any]
    append: Callable[[Any, int], Any]
    owners: Callable[[Any], list]


KINDS = [
    LogKind(
        "deltalog",
        DeltaLogError,
        create=lambda path: DeltaLog.create(path, N_PROVIDERS, noise_key=GOLDEN_KEY),
        reopen=DeltaLog.open,
        append=lambda log, k: log.upsert(k, [k % N_PROVIDERS], beta=0.5),
        owners=lambda log: [record["owner"] for record in log.records()],
    ),
    LogKind(
        "observations",
        ObservationLogError,
        create=ObservationLog,
        reopen=ObservationLog,
        append=lambda log, k: log.append(k, k, [k % N_PROVIDERS]),
        owners=lambda log: [obs.owner_id for obs in log.observations],
    ),
]


def write_records(kind, path, n):
    log = kind.create(path)
    for k in range(n):
        kind.append(log, k)
    log.close()


def record_ends(blob):
    """Offset of the first record, then one past each record, parsed by hand."""
    (header_len,) = struct.unpack_from(">I", blob, 8)
    ends = [12 + header_len]
    while ends[-1] < len(blob):
        (length,) = struct.unpack_from(">I", blob, ends[-1])
        ends.append(ends[-1] + 8 + length)
    return ends


@pytest.mark.parametrize("kind", KINDS, ids=[kind.name for kind in KINDS])
class TestCrashRecovery:
    """One repair rule for both record formats: a short or crc-failing
    record is a tear, cut on open with everything behind it; a crc-valid
    record that does not decode raises and cuts nothing."""

    def test_torn_tail_is_truncated_and_appends_resume(self, kind, log_path):
        write_records(kind, log_path, 3)
        intact = os.path.getsize(log_path)
        with open(log_path, "ab") as f:
            f.write(b"\x00\x00\x00\x40\xde\xad\xbe\xefpartial")  # torn record
        log = kind.reopen(log_path)
        assert log.repaired_bytes == 15
        assert os.path.getsize(log_path) == intact  # tail gone
        assert kind.owners(log) == [0, 1, 2]
        kind.append(log, 7)  # appends work again, and survive the next open
        log.close()
        again = kind.reopen(log_path)
        assert again.repaired_bytes == 0
        assert kind.owners(again) == [0, 1, 2, 7]

    def test_half_written_record_header_is_dropped(self, kind, log_path):
        write_records(kind, log_path, 3)
        with open(log_path, "ab") as f:
            f.write(b"\x00\x00")  # 2 of 8 header bytes
        log = kind.reopen(log_path)
        assert log.repaired_bytes == 2
        assert kind.owners(log) == [0, 1, 2]

    def test_bit_rot_in_the_tail_record_is_dropped(self, kind, log_path):
        write_records(kind, log_path, 3)
        with open(log_path, "rb") as f:
            ends = record_ends(f.read())
        with open(log_path, "r+b") as f:
            f.seek(ends[-1] - 3)
            f.write(b"\xff")  # corrupt the last record's body
        log = kind.reopen(log_path)
        assert kind.owners(log) == [0, 1]  # the two intact records survive
        assert log.repaired_bytes == ends[-1] - ends[-2]

    def test_undecodable_record_raises_and_truncates_nothing(self, kind, log_path, tmp_path):
        write_records(kind, log_path, 1)
        first_end = os.path.getsize(log_path)
        write_records(kind, str(tmp_path / "two"), 2)
        intact_record = (tmp_path / "two").read_bytes()[first_end:]
        junk = b"\xff not a record"
        with open(log_path, "ab") as f:
            f.write(struct.pack(">II", len(junk), zlib.crc32(junk)) + junk)
            f.write(intact_record)
        with open(log_path, "rb") as f:
            before = f.read()
        with pytest.raises(kind.error, match="does not decode"):
            kind.reopen(log_path)
        with open(log_path, "rb") as f:
            assert f.read() == before

    def test_sync_is_a_durability_barrier_not_a_failure(self, kind, log_path):
        log = kind.create(log_path)
        kind.append(log, 1)
        log.sync()
        log.close()
        assert kind.owners(kind.reopen(log_path)) == [1]

    @settings(max_examples=40, deadline=None)
    @given(n_records=st.integers(0, 4), data=st.data())
    def test_any_truncation_reopens_to_the_longest_record_prefix(
        self, kind, n_records, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records")
            write_records(kind, path, n_records)
            with open(path, "rb") as f:
                ends = record_ends(f.read())
            cut = data.draw(st.integers(0, ends[-1]), label="cut")
            with open(path, "r+b") as f:
                f.truncate(cut)
            if cut < ends[0]:  # inside the magic or header: not a log at all
                with pytest.raises(kind.error):
                    kind.reopen(path)
                return
            whole = sum(end <= cut for end in ends[1:])
            log = kind.reopen(path)
            assert log.repaired_bytes == cut - ends[whole]
            assert os.path.getsize(path) == ends[whole]
            assert kind.owners(log) == list(range(whole))
            kind.append(log, 99)
            log.close()
            again = kind.reopen(path)
            assert again.repaired_bytes == 0
            assert kind.owners(again) == list(range(whole)) + [99]
            again.close()


def write_golden_ops(log):
    """The named ops pinned in ``data/golden_deltalog_v1.log``."""
    log.upsert(3, [5, 1, 2], beta=0.4, name="alice")
    log.upsert(9, [0], beta=0.75)
    log.flip(3, set_providers=[7], clear_providers=[5])
    log.remove(9)
    log.flip(12, set_providers=[6, 4], beta=0.25)


class TestGoldenBytes:
    """The delta-log format is frozen: a recorded file must keep opening,
    and the writer must keep producing it byte for byte."""

    def test_magic_header_and_first_record_are_pinned(self):
        with open(GOLDEN_LOG, "rb") as f:
            blob = f.read()
        header = (
            b'{"version":1,"n_providers":8,'
            b'"noise_key":"000102030405060708090a0b0c0d0e0f"}'
        )
        assert blob[:8] == b"EPPIDLT1"
        assert blob[8:12] == struct.pack(">I", len(header))
        assert blob[12 : 12 + len(header)] == header
        first = (
            b'{"beta":0.4,"name":"alice","op":"upsert","owner":3,'
            b'"providers":[1,2,5],"seq":0}'
        )
        start = 12 + len(header)
        assert blob[start : start + 8] == struct.pack(
            ">II", len(first), zlib.crc32(first)
        )
        assert blob[start + 8 : start + 8 + len(first)] == first

    def test_opening_gives_the_expected_state(self):
        log = DeltaLog.open(GOLDEN_LOG)
        assert (log.n_providers, log.noise_key) == (N_PROVIDERS, GOLDEN_KEY)
        assert (len(log), log.repaired_bytes) == (5, 0)
        assert log.end_offset == os.path.getsize(GOLDEN_LOG)
        state = log.state()
        assert sorted(state) == [3, 9, 12]
        assert (state[3].providers, state[3].beta, state[3].name) == (
            {1, 2, 7}, 0.4, "alice"
        )
        assert state[9].removed and state[9].providers == set()
        assert (state[12].providers, state[12].beta) == ({4, 6}, 0.25)
        assert [r["op"] for r in log.records()] == [
            OP_UPSERT, OP_UPSERT, OP_FLIP, OP_REMOVE, OP_FLIP
        ]

    def test_replaying_the_ops_reproduces_the_file(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS, noise_key=GOLDEN_KEY) as log:
            write_golden_ops(log)
        with open(log_path, "rb") as f, open(GOLDEN_LOG, "rb") as g:
            assert f.read() == g.read()


class TestByteCursor:
    def test_records_from_resumes_at_any_yielded_offset(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS, noise_key=b"k" * 16) as log:
            log.upsert(1, [0, 2], beta=0.5)
            log.upsert(2, [1], beta=0.5)
            log.remove(1)
        log = DeltaLog.open(log_path)
        walked = list(log.records_from(log.data_offset()))
        assert [r for r, _ in walked] == list(log.records())
        assert len(walked) == 3
        assert walked[-1][1] == log.end_offset
        # Every yielded next_offset is a valid resume cursor: the tail
        # from it is exactly the records not yet consumed.
        offsets = [log.data_offset()] + [pos for _, pos in walked]
        for skip, start in enumerate(offsets):
            assert list(log.records_from(start)) == walked[skip:]
        assert list(log.records_from(log.end_offset)) == []

    def test_offsets_outside_the_record_region_are_rejected(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(1, [0], beta=0.5)
        log = DeltaLog.open(log_path)
        with pytest.raises(DeltaLogError, match="outside the record region"):
            list(log.records_from(0))  # inside the header
        with pytest.raises(DeltaLogError, match="outside the record region"):
            list(log.records_from(log.end_offset + 1))

    def test_mid_record_offset_fails_the_crc_not_the_reader(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(1, [0], beta=0.5)
            log.upsert(2, [1], beta=0.5)
        log = DeltaLog.open(log_path)
        with pytest.raises(DeltaLogError, match="corrupted"):
            list(log.records_from(log.data_offset() + 1))

    def test_cursor_survives_reopen_and_append(self, log_path):
        with DeltaLog.create(log_path, N_PROVIDERS) as log:
            log.upsert(1, [0], beta=0.5)
            cursor = log.end_offset
        with DeltaLog.open(log_path) as log:
            log.upsert(2, [1], beta=0.5)
        tail = list(DeltaLog.open(log_path).records_from(cursor))
        assert len(tail) == 1
        assert tail[0][0]["owner"] == 2
