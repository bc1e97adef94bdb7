"""Data model: owners, providers, membership matrix, information network.

Mirrors the system model of paper Sec. II-A:

* ``n`` data owners ``t_j``, each with a personal privacy degree ``ǫ_j``
  chosen at :meth:`InformationNetwork.delegate` time;
* ``m`` autonomous providers ``p_i``, each summarizing its local repository
  by a membership vector ``M_i(·)``;
* the membership matrix ``M(i, j) = 1`` iff owner ``t_j`` has records at
  provider ``p_i`` -- this matrix is the *private* input of construction.

The matrix is stored both sparsely (per-provider owner sets, for protocol
code that works provider-locally) and as a dense numpy view on demand (for
the vectorized experiment paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.errors import ModelError

__all__ = ["Owner", "Provider", "MembershipMatrix", "InformationNetwork", "Record"]


@dataclass(frozen=True)
class Owner:
    """A data owner (a *patient* in the HIE instantiation).

    ``epsilon`` is the personalized privacy degree ǫ_j ∈ [0, 1]: 0 means "no
    privacy concern" (index may reveal the true provider list), 1 means "best
    preservation" (searches degrade to broadcast).
    """

    owner_id: int
    name: str
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ModelError(
                f"privacy degree must be in [0, 1], got {self.epsilon} "
                f"for owner {self.name!r}"
            )


@dataclass(frozen=True)
class Record:
    """A personal record delegated to a provider (content is opaque here;
    content privacy is out of the paper's scope, Sec. II-B)."""

    owner_id: int
    payload: str = ""


@dataclass
class Provider:
    """An autonomous provider (a *hospital*): holds delegated records and the
    local membership vector over owners."""

    provider_id: int
    name: str
    records: dict[int, list[Record]] = field(default_factory=dict)

    def store(self, record: Record) -> None:
        self.records.setdefault(record.owner_id, []).append(record)

    def has_owner(self, owner_id: int) -> bool:
        return owner_id in self.records

    def membership_vector(self, n_owners: int) -> np.ndarray:
        """Local vector ``M_i(·)`` as a dense 0/1 array over owner ids."""
        vec = np.zeros(n_owners, dtype=np.uint8)
        for oid in self.records:
            if 0 <= oid < n_owners:
                vec[oid] = 1
        return vec

    @property
    def owner_ids(self) -> set[int]:
        return set(self.records)


class MembershipMatrix:
    """The private matrix ``M(i, j)``, sparse-by-provider.

    Row index ``i`` ranges over providers, column index ``j`` over owners
    (matching the paper's ``m x n`` orientation).
    """

    def __init__(self, n_providers: int, n_owners: int):
        if n_providers < 1 or n_owners < 0:
            raise ModelError(
                f"invalid matrix shape ({n_providers} providers, {n_owners} owners)"
            )
        self.n_providers = n_providers
        self.n_owners = n_owners
        self._by_provider: list[set[int]] = [set() for _ in range(n_providers)]
        self._by_owner: list[set[int]] = [set() for _ in range(n_owners)]

    def set(self, provider_id: int, owner_id: int) -> None:
        self._check(provider_id, owner_id)
        self._by_provider[provider_id].add(owner_id)
        self._by_owner[owner_id].add(provider_id)

    def get(self, provider_id: int, owner_id: int) -> bool:
        self._check(provider_id, owner_id)
        return owner_id in self._by_provider[provider_id]

    def providers_of(self, owner_id: int) -> frozenset[int]:
        """True-positive provider set of one owner (the protected secret)."""
        if not 0 <= owner_id < self.n_owners:
            raise ModelError(f"unknown owner id {owner_id}")
        return frozenset(self._by_owner[owner_id])

    def owners_of(self, provider_id: int) -> frozenset[int]:
        if not 0 <= provider_id < self.n_providers:
            raise ModelError(f"unknown provider id {provider_id}")
        return frozenset(self._by_provider[provider_id])

    def frequency(self, owner_id: int) -> int:
        """Number of providers holding this owner's records."""
        return len(self.providers_of(owner_id))

    def sigma(self, owner_id: int) -> float:
        """Fractional identity frequency σ_j = frequency / m."""
        return self.frequency(owner_id) / self.n_providers

    def frequencies(self) -> np.ndarray:
        """All owner frequencies ``f_j`` as one int64 vector."""
        return np.fromiter(
            (len(s) for s in self._by_owner), dtype=np.int64, count=self.n_owners
        )

    def sigmas(self) -> np.ndarray:
        """All fractional frequencies ``σ_j = f_j / m`` in one vectorized
        read -- the construction hot path (Eq. 3-7) consumes this instead
        of ``n`` per-owner :meth:`sigma` calls."""
        return self.frequencies() / self.n_providers

    def to_dense(self) -> np.ndarray:
        """Dense ``m x n`` uint8 copy (providers are rows)."""
        dense = np.zeros((self.n_providers, self.n_owners), dtype=np.uint8)
        for pid, owners in enumerate(self._by_provider):
            for oid in owners:
                dense[pid, oid] = 1
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "MembershipMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ModelError("dense matrix must be 2-D (providers x owners)")
        matrix = cls(dense.shape[0], dense.shape[1])
        rows, cols = np.nonzero(dense)
        for pid, oid in zip(rows.tolist(), cols.tolist()):
            matrix.set(pid, oid)
        return matrix

    def iter_cells(self) -> Iterator[tuple[int, int]]:
        """All (provider, owner) pairs with ``M(i, j) = 1``."""
        for pid, owners in enumerate(self._by_provider):
            for oid in owners:
                yield pid, oid

    @property
    def total_memberships(self) -> int:
        return sum(len(s) for s in self._by_provider)

    def _check(self, provider_id: int, owner_id: int) -> None:
        if not 0 <= provider_id < self.n_providers:
            raise ModelError(f"unknown provider id {provider_id}")
        if not 0 <= owner_id < self.n_owners:
            raise ModelError(f"unknown owner id {owner_id}")


class InformationNetwork:
    """The multi-domain network: providers + owners + delegations.

    This is the object on which the four operations of the paper's system
    model act: ``delegate`` here, ``ConstructPPI`` in
    :mod:`repro.core.construction` / :mod:`repro.protocol`, ``QueryPPI`` on
    the built :class:`~repro.core.postings.PostingsIndex`, and ``AuthSearch`` in
    :mod:`repro.core.authsearch`.
    """

    def __init__(self, n_providers: int, provider_names: Optional[Iterable[str]] = None):
        if n_providers < 1:
            raise ModelError(f"need at least one provider, got {n_providers}")
        names = list(provider_names) if provider_names is not None else [
            f"provider-{i}" for i in range(n_providers)
        ]
        if len(names) != n_providers:
            raise ModelError(
                f"{n_providers} providers but {len(names)} names supplied"
            )
        self.providers = [Provider(provider_id=i, name=nm) for i, nm in enumerate(names)]
        self.owners: list[Owner] = []
        self._owner_ids_by_name: dict[str, int] = {}

    # -- owner management -------------------------------------------------------

    def register_owner(self, name: str, epsilon: float) -> Owner:
        """Create an owner with privacy degree ``epsilon`` (paper's Delegate
        carries the degree; registration fixes it up front)."""
        if name in self._owner_ids_by_name:
            raise ModelError(f"owner name {name!r} already registered")
        owner = Owner(owner_id=len(self.owners), name=name, epsilon=epsilon)
        self.owners.append(owner)
        self._owner_ids_by_name[name] = owner.owner_id
        return owner

    def owner_by_name(self, name: str) -> Owner:
        if name not in self._owner_ids_by_name:
            raise ModelError(f"unknown owner {name!r}")
        return self.owners[self._owner_ids_by_name[name]]

    # -- the Delegate operation ---------------------------------------------------

    def delegate(self, owner: Owner, provider_id: int, payload: str = "") -> None:
        """``Delegate(<t_j, ǫ_j>, p_i)``: store a record of ``owner`` at the
        provider, establishing the private membership ``M(i, j) = 1``."""
        if not 0 <= provider_id < self.n_providers:
            raise ModelError(f"unknown provider id {provider_id}")
        if owner.owner_id >= len(self.owners) or self.owners[owner.owner_id] is not owner:
            raise ModelError(f"owner {owner.name!r} is not registered in this network")
        self.providers[provider_id].store(Record(owner_id=owner.owner_id, payload=payload))

    # -- views -------------------------------------------------------------------

    @property
    def n_providers(self) -> int:
        return len(self.providers)

    @property
    def n_owners(self) -> int:
        return len(self.owners)

    def epsilons(self) -> np.ndarray:
        return np.array([o.epsilon for o in self.owners], dtype=float)

    def membership_matrix(self) -> MembershipMatrix:
        """Materialize the global private matrix (exists only conceptually in
        a real deployment; protocol code only ever reads per-provider rows)."""
        matrix = MembershipMatrix(self.n_providers, self.n_owners)
        for provider in self.providers:
            for oid in provider.owner_ids:
                matrix.set(provider.provider_id, oid)
        return matrix
