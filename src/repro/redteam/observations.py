"""The adversary's substrate: an epoch-tagged log of observed responses.

Every attack in this package starts from the same primitive: the adversary
issues ordinary ``query`` requests against the live fleet and writes down
what came back.  :class:`ObservationLog` is that notebook -- one record per
observed response, ``(epoch, owner_id, provider_set)``, in a crash-safe
append format so a long-running observation campaign survives the
adversary's own process dying mid-write (the same record file, and the same
recovery contract, as :class:`~repro.updates.deltalog.DeltaLog`).

The file is a :class:`~repro.core.storage.RecordFile` (magic ``EPPIOBS1``,
header ``{}``) whose bodies pack ``u64 epoch | u64 owner | u32 n | n * i32
provider``.  ``ObservationLog(path=None)`` keeps everything in memory --
handy for property tests that stand up hundreds of tiny campaigns.

:class:`LiveObserver` is the collection half: it drives a
:class:`~repro.serving.client.LocatorClient` over real sockets (protocol
v1 or v2 -- whatever the client speaks), reads the **per-response** epoch
tag the server stamps on every answer, and appends one observation per
query.  It deliberately routes around the client's result cache: an
adversary re-asking after a republication must see the fresh row, not a
memo of the old one.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.errors import ModelError
from repro.core.storage import RecordFile
from repro.serving.protocol import VERB_QUERY
from repro.serving.server import shard_of

__all__ = ["LiveObserver", "Observation", "ObservationLog", "ObservationLogError"]

MAGIC = b"EPPIOBS1"
_KIND = "observation log"
_BODY_FIXED = struct.Struct(">QQI")  # epoch, owner, provider count


class ObservationLogError(ModelError):
    """The file is not a readable observation log."""


@dataclass(frozen=True)
class Observation:
    """One observed query response."""

    epoch: int
    owner_id: int
    providers: frozenset


class ObservationLog:
    """Append-only, crash-safe store of epoch-tagged query observations.

    ``ObservationLog(path)`` opens (or creates) the file at ``path`` and
    replays every intact record into memory; a torn tail left by a crash
    mid-append is truncated before the next write.  ``path=None`` keeps the
    log purely in memory.  Usable as a context manager.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.repaired_bytes = 0
        self._observations: list[Observation] = []
        self._records: Optional[RecordFile] = None
        if path is None:
            return
        if os.path.exists(path):
            self._records = RecordFile.open(path, MAGIC, _KIND, ObservationLogError)
            self.repaired_bytes = self._records.replay(self._replay)
        else:
            self._records = RecordFile.create(path, MAGIC, b"{}", _KIND, ObservationLogError)

    # -- durability -----------------------------------------------------------

    def _replay(self, body: bytes) -> None:
        if len(body) >= _BODY_FIXED.size:
            epoch, owner, count = _BODY_FIXED.unpack_from(body)
            if len(body) == _BODY_FIXED.size + 4 * count:
                providers = struct.unpack_from(f">{count}i", body, _BODY_FIXED.size)
                self._observations.append(Observation(epoch, owner, frozenset(providers)))
                return
        raise ObservationLogError(
            f"{self.path!r} holds a {len(body)}-byte record that does not decode"
        )

    def append(self, epoch: int, owner_id: int, providers: Iterable[int]) -> None:
        """Record one observed response (flushed per record)."""
        if epoch < 0 or owner_id < 0:
            raise ObservationLogError(
                f"epoch and owner must be >= 0, got ({epoch}, {owner_id})"
            )
        ids = sorted(int(p) for p in providers)
        self._observations.append(Observation(epoch, owner_id, frozenset(ids)))
        if self._records is not None:
            self._records.append(
                _BODY_FIXED.pack(epoch, owner_id, len(ids))
                + struct.pack(f">{len(ids)}i", *ids)
            )

    def sync(self) -> None:
        if self._records is not None:
            self._records.sync()

    def close(self) -> None:
        if self._records is not None:
            self._records.close()
            self._records = None

    def __enter__(self) -> "ObservationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the adversary's views ------------------------------------------------

    @property
    def observations(self) -> list[Observation]:
        return list(self._observations)

    @property
    def n_records(self) -> int:
        return len(self._observations)

    def epochs(self) -> list[int]:
        """Distinct epochs observed, ascending."""
        return sorted({obs.epoch for obs in self._observations})

    def owners(self) -> list[int]:
        return sorted({obs.owner_id for obs in self._observations})

    def by_owner(self) -> dict:
        """``owner -> {epoch -> provider frozenset}``, newest record wins.

        Re-observing the same ``(owner, epoch)`` overwrites -- the response
        is deterministic per epoch, and during a rolling reload the later
        observation is the one the adversary acts on.
        """
        view: dict[int, dict[int, frozenset]] = {}
        for obs in self._observations:
            view.setdefault(obs.owner_id, {})[obs.epoch] = obs.providers
        return view


class LiveObserver:
    """Collects observations from a live fleet through a real client.

    ``client`` is a :class:`~repro.serving.client.LocatorClient`; queries
    are addressed straight at the owner's home shard with
    :meth:`~repro.serving.client.LocatorClient.call`, so every harvest hits
    the wire (no client-side cache) and the per-response ``epoch`` tag is
    captured verbatim -- during a rolling reload one harvest can legally
    straddle two epochs, and the log records exactly which answer came from
    which.
    """

    def __init__(self, client, log: ObservationLog):
        self.client = client
        self.log = log

    async def observe(self, owner_id: int) -> Observation:
        """One query, one record."""
        addr = self.client.servers[shard_of(owner_id, len(self.client.servers))]
        response = await self.client.call(addr, VERB_QUERY, owner=owner_id)
        epoch = int(response.get("epoch", 0))
        providers = [int(p) for p in response["providers"]]
        self.log.append(epoch, owner_id, providers)
        return Observation(epoch, owner_id, frozenset(providers))

    async def harvest(self, owner_ids: Iterable[int]) -> int:
        """Observe every owner once; returns the number of records added."""
        count = 0
        for owner_id in owner_ids:
            await self.observe(owner_id)
            count += 1
        return count
