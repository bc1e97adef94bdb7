"""AuthSearch: phase 2 of the two-phase search (paper Sec. II-A).

After ``QueryPPI`` returns the obscured provider list, the searcher contacts
each provider, authenticates against the provider's local access-control
subsystem, and -- only if authorized -- searches the local repository.

The paper assumes each provider "has already set up its local access control
subsystem"; we implement a simple capability-token ACL (see DESIGN.md
substitution table) so the full flow is runnable end to end.  Noise providers
are exactly the contacts that return no records: the searcher pays the cost
but learns the obscured list contained false positives.

Phase 2 is decided here once: a provider answers with
:func:`answer_search` and a searcher files the answer with
:meth:`SearchOutcome.add`.  :func:`auth_search` runs them in process;
:mod:`repro.serving`'s endpoint and client carry the same calls over
sockets or, for :mod:`repro.service`, over a virtual-clock loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import AccessDenied, ModelError
from repro.core.model import InformationNetwork, Provider, Record

__all__ = ["AccessControl", "DENIED", "OK", "SearchOutcome", "answer_search", "auth_search"]

#: The two answers a provider gives; an ``OK`` without records is noise.
OK = "ok"
DENIED = "denied"


@dataclass
class AccessControl:
    """Per-provider ACL: which searchers may query which owners' records.

    ``grants`` maps searcher name to the set of owner ids it may read; a
    searcher present in ``trusted`` may read everything (e.g. an emergency
    room break-glass role in the HIE scenario).
    """

    grants: dict[str, set[int]] = field(default_factory=dict)
    trusted: set[str] = field(default_factory=set)

    def authorize(self, searcher: str, owner_id: int) -> bool:
        if searcher in self.trusted:
            return True
        return owner_id in self.grants.get(searcher, set())

    def grant(self, searcher: str, owner_id: int) -> None:
        self.grants.setdefault(searcher, set()).add(owner_id)


@dataclass
class SearchOutcome:
    """One two-phase search as its searcher saw it, on any substrate.

    ``retries`` counts retransmitted requests and ``latency_s`` is the
    search's start-to-end time (simulated or wall clock); both stay 0 in
    process.
    """

    owner_id: int
    records: list[Record] = field(default_factory=list)
    positive_providers: list[int] = field(default_factory=list)
    noise_providers: list[int] = field(default_factory=list)  # false positives
    denied_providers: list[int] = field(default_factory=list)
    failed_providers: list[int] = field(default_factory=list)  # never answered
    retries: int = 0
    latency_s: float = 0.0

    @property
    def contacted(self) -> int:
        """Providers contacted: the search cost."""
        return (
            len(self.positive_providers)
            + len(self.noise_providers)
            + len(self.denied_providers)
            + len(self.failed_providers)
        )

    @property
    def found(self) -> bool:
        return bool(self.records)

    def add(self, pid: int, status: str, records: list[Record]) -> None:
        """File provider ``pid``'s :func:`answer_search` reply."""
        if status == DENIED:
            self.denied_providers.append(pid)
        elif records:
            self.positive_providers.append(pid)
            self.records.extend(records)
        else:
            self.noise_providers.append(pid)


def _require_id(value, kind: str, bound: Optional[int] = None) -> None:
    # bool is an int subclass, but True is not id 1.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{kind} id must be an integer, got {value!r}")
    if bound is not None and not 0 <= value < bound:
        raise ModelError(f"unknown {kind} id {value}")


def answer_search(
    provider: Provider, acl: AccessControl, searcher: str, owner_id: int
) -> tuple[str, list[Record]]:
    """A provider's AuthSearch answer: ``(DENIED, [])`` or ``(OK, records)``.

    Stateless, so a retried request gets the same answer.  A searcher that
    is not a name or an owner id that is not an int raises
    :class:`ModelError`.
    """
    if not isinstance(searcher, str):
        raise ModelError(f"searcher must be a name, got {searcher!r}")
    _require_id(owner_id, "owner")
    if not acl.authorize(searcher, owner_id):
        return DENIED, []
    return OK, provider.records.get(owner_id, [])


def auth_search(
    network: InformationNetwork,
    acls: dict[int, AccessControl],
    searcher: str,
    provider_ids: list[int],
    owner_id: int,
    strict: bool = False,
) -> SearchOutcome:
    """``AuthSearch(s, {p_i}, t_j)`` over the candidate list, in process.

    A provider without an ACL in ``acls`` denies everyone.  With
    ``strict=True`` an authorization failure raises :class:`AccessDenied`;
    the default records the denial and continues, which is how a real
    federated search degrades.
    """
    _require_id(owner_id, "owner", network.n_owners)
    outcome = SearchOutcome(owner_id=owner_id)
    for pid in provider_ids:
        _require_id(pid, "provider", network.n_providers)
        status, records = answer_search(
            network.providers[pid], acls.get(pid, AccessControl()), searcher, owner_id
        )
        if strict and status == DENIED:
            raise AccessDenied(
                f"searcher {searcher!r} denied at provider {pid} for owner {owner_id}"
            )
        outcome.add(pid, status, records)
    return outcome
