"""The published PPI index and the QueryPPI operation (paper Sec. II-A).

Once constructed, the index is a static mapping from owner identity to an
*obscured* provider list.  Query evaluation is a plain lookup -- all the
privacy machinery happened at construction time, which is also why the index
is "fully resistant to repeated attacks against the same identity over time"
(Sec. III-C): repeated queries return the identical list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError

__all__ = ["PPIIndex", "IndexStats"]


@dataclass(frozen=True)
class IndexStats:
    """Size/cost statistics of a published index."""

    n_providers: int
    n_owners: int
    published_positives: int
    avg_result_size: float  # mean providers returned per owner (search cost)
    broadcast_owners: int  # owners whose query hits every provider


class PPIIndex:
    """An immutable published index ``M'`` hosted by the third-party server."""

    def __init__(self, published: np.ndarray, owner_names: list[str] | None = None):
        published = np.asarray(published, dtype=np.uint8)
        if published.ndim != 2:
            raise ModelError("published matrix must be 2-D (providers x owners)")
        if not np.all((published == 0) | (published == 1)):
            raise ModelError("published matrix must be Boolean")
        self._published = published
        self._published.setflags(write=False)
        if owner_names is not None and len(owner_names) != published.shape[1]:
            raise ModelError(
                f"{published.shape[1]} owners but {len(owner_names)} names"
            )
        self._owner_names = owner_names
        self._name_to_id = (
            {name: j for j, name in enumerate(owner_names)} if owner_names else {}
        )

    # -- QueryPPI -----------------------------------------------------------

    def query(self, owner_id: int) -> list[int]:
        """``QueryPPI(t_j) -> {p_i}``: providers that *may* hold the records."""
        self._check_owner(owner_id)
        return np.nonzero(self._published[:, owner_id])[0].tolist()

    def query_by_name(self, name: str) -> list[int]:
        if name not in self._name_to_id:
            raise ModelError(f"unknown owner name {name!r}")
        return self.query(self._name_to_id[name])

    def query_many(self, owner_ids) -> list[list[int]]:
        """Vectorized ``QueryPPI`` over many owners at once.

        One column-gather plus one ``nonzero`` over the sub-matrix replaces
        the per-owner Python loop, which is what keeps ``query-batch``
        frames cheap on the serving hot path.
        """
        ids = np.asarray(owner_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ModelError("owner_ids must be a flat sequence of ids")
        if ids.size == 0:
            return []
        out_of_range = (ids < 0) | (ids >= self.n_owners)
        if out_of_range.any():
            raise ModelError(f"unknown owner id {int(ids[out_of_range][0])}")
        # nonzero on the owners-major view emits (owner position, provider)
        # pairs sorted by owner then provider -- one split per owner.
        owner_pos, providers = np.nonzero(self._published[:, ids].T)
        splits = np.searchsorted(owner_pos, np.arange(1, ids.size))
        return [chunk.tolist() for chunk in np.split(providers, splits)]

    def result_size(self, owner_id: int) -> int:
        """Search cost of one query: number of providers to contact."""
        self._check_owner(owner_id)
        return int(self._published[:, owner_id].sum())

    # -- public views (this is exactly what an attacker sees) ----------------------

    @property
    def matrix(self) -> np.ndarray:
        """The public matrix ``M'`` -- readable by anyone, including attackers."""
        return self._published

    @property
    def n_providers(self) -> int:
        return self._published.shape[0]

    @property
    def n_owners(self) -> int:
        return self._published.shape[1]

    @property
    def owner_names(self) -> list[str] | None:
        return list(self._owner_names) if self._owner_names is not None else None

    def published_frequency(self, owner_id: int) -> float:
        """Apparent frequency of an identity in the public index (the signal
        the common-identity attacker ranks identities by)."""
        self._check_owner(owner_id)
        return float(self._published[:, owner_id].mean())

    def stats(self) -> IndexStats:
        per_owner = self._published.sum(axis=0)
        return IndexStats(
            n_providers=self.n_providers,
            n_owners=self.n_owners,
            published_positives=int(per_owner.sum()),
            avg_result_size=float(per_owner.mean()) if self.n_owners else 0.0,
            broadcast_owners=int(np.sum(per_owner == self.n_providers)),
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Compact JSON wire format (what the PPI server would persist)."""
        owner_pos, providers = np.nonzero(self._published.T)
        splits = np.searchsorted(owner_pos, np.arange(1, self.n_owners))
        positives = (
            [chunk.tolist() for chunk in np.split(providers, splits)]
            if self.n_owners
            else []
        )
        payload = {
            "n_providers": self.n_providers,
            "n_owners": self.n_owners,
            "owner_names": self._owner_names,
            "positives": positives,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PPIIndex":
        payload = json.loads(text)
        n_providers, n_owners = payload["n_providers"], payload["n_owners"]
        positives = payload["positives"]
        lengths = np.fromiter(
            (len(ps) for ps in positives), dtype=np.int64, count=len(positives)
        )
        rows = np.fromiter(
            (p for ps in positives for p in ps), dtype=np.int64, count=int(lengths.sum())
        )
        if rows.size and (rows.min() < 0 or rows.max() >= n_providers):
            raise ModelError("positive provider id out of range")
        published = np.zeros((n_providers, n_owners), dtype=np.uint8)
        published[rows, np.repeat(np.arange(len(positives)), lengths)] = 1
        return cls(published, owner_names=payload.get("owner_names"))

    def _check_owner(self, owner_id: int) -> None:
        if not 0 <= owner_id < self.n_owners:
            raise ModelError(f"unknown owner id {owner_id}")
