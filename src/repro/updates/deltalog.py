"""Crc-checksummed append-only delta log: the write path of live updates.

The published index is rebuilt rarely (compaction); everything that happens
between compactions -- owners enrolling, moving between providers, revoking
consent -- lands here first, as one durable record per operation:

``upsert``
    Replace owner ``j``'s *true* provider set and publication degree β_j
    (new owners enroll this way too).
``remove``
    Tombstone owner ``j``: queries answer the empty list from the next
    segment on.  An empty list discloses nothing (the fp=1.0 convention of
    the paper's broadcast rows, inverted).
``flip``
    Set/clear individual true bits against the owner's *latest logged*
    truth -- the incremental form of a provider gaining/losing the owner's
    records.

The file is a :class:`~repro.core.storage.RecordFile` (magic ``EPPIDLT1``)
with one JSON body per operation, under its repair rule.  The JSON header
persists the log's ``n_providers`` and the hex ``noise_key`` of its
:class:`~repro.updates.noise.StickyOwnerStream` -- the key *is* the
sticky-noise state, so reopening the log republishes every owner with the
identical false positives (see ``noise.py`` for the privacy argument).
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.core.errors import ModelError
from repro.core.storage import RecordFile

__all__ = [
    "DeltaLog",
    "DeltaLogError",
    "OP_FLIP",
    "OP_REMOVE",
    "OP_UPSERT",
    "OwnerDelta",
]

MAGIC = b"EPPIDLT1"

OP_UPSERT = "upsert"
OP_REMOVE = "remove"
OP_FLIP = "flip"

# Segments store owner ids as int64.
_MAX_OWNER_ID = (1 << 63) - 1

# One encoder for every record body (``json.dumps`` with these options
# builds a new encoder per call); the bytes are the same.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class DeltaLogError(ModelError):
    """The file is not a readable delta log, or an operation is invalid."""


@dataclass
class OwnerDelta:
    """Net effect of the log on one owner (the replayed state)."""

    owner_id: int
    providers: set = field(default_factory=set)  # true provider ids
    beta: float = 0.0
    name: Optional[str] = None
    removed: bool = False


class DeltaLog:
    """One append-only update log, replayable into per-owner net deltas.

    Use :meth:`create` for a new log and :meth:`open` for an existing one;
    both return a handle with the replayed state in memory, so appends are
    validated against what the log already says (a ``flip`` needs a prior
    truth to flip).  Appends are flushed per record; call :meth:`sync` for
    an fsync barrier when durability beyond the OS cache matters.
    """

    def __init__(
        self, records: RecordFile, n_providers: int, noise_key: bytes, *, _internal: bool = False
    ):
        if not _internal:
            raise DeltaLogError("use DeltaLog.create() or DeltaLog.open()")
        self._records = records
        self.path = records.path
        self.n_providers = n_providers
        self.noise_key = noise_key
        self.repaired_bytes = 0  # torn tail dropped by the last open
        self._state: dict[int, OwnerDelta] = {}
        self._n_records = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, n_providers: int, noise_key: Optional[bytes] = None
    ) -> "DeltaLog":
        """Write a fresh empty log (refuses to clobber an existing file)."""
        if n_providers < 1:
            raise DeltaLogError(f"need at least one provider, got {n_providers}")
        noise_key = noise_key if noise_key is not None else secrets.token_bytes(16)
        if not noise_key:
            raise DeltaLogError("noise key must be non-empty")
        header = json.dumps(
            {"version": 1, "n_providers": n_providers, "noise_key": noise_key.hex()},
            separators=(",", ":"),
        ).encode("utf-8")
        records = RecordFile.create(path, MAGIC, header, "delta log", DeltaLogError)
        return cls(records, n_providers, noise_key, _internal=True)

    @classmethod
    def open(cls, path: str) -> "DeltaLog":
        """Open and replay an existing log -- the single writer's entry.

        A torn tail (crash mid-append) is always cut, because an append
        behind it would be lost at the next open; ``repaired_bytes`` counts
        the bytes cut.
        """
        records = RecordFile.open(path, MAGIC, "delta log", DeltaLogError)
        try:
            header = json.loads(records.header.decode("utf-8"))
        except ValueError as exc:  # not utf-8, or not JSON
            raise DeltaLogError(f"{path!r} has an undecodable header") from exc
        if (
            not isinstance(header, dict)
            or header.get("version") != 1
            or not isinstance(header.get("n_providers"), int)
            or not isinstance(header.get("noise_key"), str)
        ):
            raise DeltaLogError(f"{path!r} has a malformed header")
        noise_key = bytes.fromhex(header["noise_key"])
        log = cls(records, header["n_providers"], noise_key, _internal=True)
        log.repaired_bytes = records.replay(log._replay)
        return log

    def _replay(self, body: bytes) -> None:
        self._apply(self._decode(body))
        self._n_records += 1

    def _decode(self, body: bytes) -> dict[str, Any]:
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as exc:  # not utf-8, or not JSON
            raise DeltaLogError(
                f"{self.path!r} holds a crc-valid record that does not decode"
            ) from exc

    # -- appends --------------------------------------------------------------

    def upsert(
        self,
        owner_id: int,
        providers,
        beta: float,
        name: Optional[str] = None,
    ) -> int:
        """Replace owner ``owner_id``'s true provider set and β."""
        providers = sorted({int(p) for p in providers})
        record: dict[str, Any] = {
            "op": OP_UPSERT,
            "owner": int(owner_id),
            "providers": providers,
            "beta": float(beta),
        }
        if name is not None:
            record["name"] = str(name)
        return self.append(record)

    def remove(self, owner_id: int) -> int:
        """Tombstone owner ``owner_id`` (idempotent)."""
        return self.append({"op": OP_REMOVE, "owner": int(owner_id)})

    def flip(
        self,
        owner_id: int,
        set_providers=(),
        clear_providers=(),
        beta: Optional[float] = None,
    ) -> int:
        """Set/clear individual true bits of owner ``owner_id``."""
        record: dict[str, Any] = {
            "op": OP_FLIP,
            "owner": int(owner_id),
            "set": sorted({int(p) for p in set_providers}),
            "clear": sorted({int(p) for p in clear_providers}),
        }
        if beta is not None:
            record["beta"] = float(beta)
        return self.append(record)

    def append(self, record: dict[str, Any]) -> int:
        """Validate, apply and durably append one record; returns its seq."""
        record = dict(record)
        record["seq"] = self._n_records
        self._validate(record)
        body = _RECORD_ENCODER.encode(record).encode("utf-8")
        self._records.append(body)
        self._apply(record)
        self._n_records += 1
        return record["seq"]

    def _validate(self, record: dict[str, Any]) -> None:
        op = record.get("op")
        owner = record.get("owner")
        if not isinstance(owner, int) or not 0 <= owner <= _MAX_OWNER_ID:
            raise DeltaLogError(f"invalid owner id {owner!r}")
        if op == OP_UPSERT:
            self._check_ids(record["providers"])
            self._check_beta(record["beta"])
        elif op == OP_REMOVE:
            pass
        elif op == OP_FLIP:
            self._check_ids(record["set"])
            self._check_ids(record["clear"])
            if "beta" in record:
                self._check_beta(record["beta"])
            else:
                prior = self._state.get(owner)
                if prior is None or prior.removed:
                    raise DeltaLogError(
                        f"flip for owner {owner} with no logged truth needs a beta"
                    )
        else:
            raise DeltaLogError(f"unknown delta op {op!r}")

    def _check_ids(self, providers) -> None:
        for p in providers:
            if not isinstance(p, int) or not 0 <= p < self.n_providers:
                raise DeltaLogError(f"provider id {p!r} out of range")

    def _check_beta(self, beta) -> None:
        if not isinstance(beta, (int, float)) or not 0.0 <= float(beta) <= 1.0:
            raise DeltaLogError(f"beta must lie in [0, 1], got {beta!r}")

    def _apply(self, record: dict[str, Any]) -> None:
        owner = int(record["owner"])
        op = record["op"]
        if op == OP_UPSERT:
            self._state[owner] = OwnerDelta(
                owner_id=owner,
                providers=set(record["providers"]),
                beta=float(record["beta"]),
                name=record.get("name"),
            )
        elif op == OP_REMOVE:
            prior = self._state.get(owner)
            self._state[owner] = OwnerDelta(
                owner_id=owner,
                name=prior.name if prior else None,
                removed=True,
            )
        elif op == OP_FLIP:
            prior = self._state.get(owner)
            if prior is None or prior.removed:
                prior = OwnerDelta(owner_id=owner)
            providers = (prior.providers | set(record["set"])) - set(
                record["clear"]
            )
            self._state[owner] = OwnerDelta(
                owner_id=owner,
                providers=providers,
                beta=float(record.get("beta", prior.beta)),
                name=prior.name,
            )

    # -- reads ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._n_records

    def state(self) -> dict[int, OwnerDelta]:
        """Replayed net-per-owner state (a shallow copy; do not mutate)."""
        return dict(self._state)

    def records(self) -> Iterator[dict[str, Any]]:
        """Re-scan the file record by record (crc-verified)."""
        for record, _ in self.records_from(self.data_offset()):
            yield record

    def data_offset(self) -> int:
        """Byte offset of the first record (just past the header)."""
        return self._records.data_start

    @property
    def end_offset(self) -> int:
        """Byte offset one past the last good record -- the resume cursor."""
        return self._records.end_offset

    def records_from(
        self, offset: int
    ) -> Iterator[tuple[dict[str, Any], int]]:
        """Crc-verified scan from byte ``offset``, as ``(record, next_offset)``.

        The cursor contract for tailing readers (segment streamers): persist
        ``next_offset`` after consuming a record and pass it back later to
        resume without rereading the log from the top.  Valid offsets are
        :meth:`data_offset` or any ``next_offset`` this method yielded; an
        offset landing mid-record fails the crc check and raises.
        """
        for body, next_offset in self._records.records_from(offset):
            yield self._decode(body), next_offset

    # -- lifecycle ------------------------------------------------------------

    def sync(self) -> None:
        """fsync the log file (durability barrier)."""
        self._records.sync()

    def close(self) -> None:
        self._records.close()

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
