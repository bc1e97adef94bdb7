"""The locator service as live network actors (paper Fig. 1).

Completes the system picture: after construction, the published index is
hosted by a third-party *PPI server* node; a *searcher* node performs the
two-phase search as timed messages:

1. ``QueryPPI(t)`` to the server, which answers with the obscured provider
   list;
2. ``AuthSearch`` fan-out: the searcher contacts every candidate provider,
   each of which checks its local ACL and answers with records or a denial.

The searcher is fault tolerant: every request carries a retransmission
timer, so the service survives the simulator's injected message loss
(dropped requests or replies are retried up to ``max_retries`` times; a
provider that never answers is recorded as failed rather than hanging the
query).

The simulation yields the end-to-end *search latency* and per-query message
cost -- the operational face of the privacy/overhead trade-off benchmarked
in `benchmarks/bench_search_latency.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.authsearch import AccessControl
from repro.core.model import Provider, Record
from repro.core.postings import PostingsIndex
from repro.net.simulator import Node
from repro.net.transport import Message

__all__ = [
    "QUERY",
    "QUERY_REPLY",
    "SEARCH",
    "SEARCH_REPLY",
    "PPIServerNode",
    "ProviderServiceNode",
    "SearcherNode",
    "SearchOutcome",
]

QUERY = "service/query"
QUERY_REPLY = "service/query-reply"
SEARCH = "service/search"
SEARCH_REPLY = "service/search-reply"

# CPU cost models for service-side work.
LOOKUP_COMPUTE_S = 1e-5  # index lookup at the PPI server
ACL_COMPUTE_S = 5e-5  # authentication + authorization at a provider
# Searcher-side cost per provider contact (session setup, credential
# presentation, response validation) -- this is what makes noise providers
# expensive for the client even though the fan-out is parallel.
CONTACT_COMPUTE_S = 2e-4
RECORD_BITS = 4096  # wire size of one personal record


@dataclass
class SearchOutcome:
    """Result of one two-phase search, as observed by the searcher."""

    owner_id: int
    records: list[Record] = field(default_factory=list)
    positive_providers: list[int] = field(default_factory=list)
    noise_providers: list[int] = field(default_factory=list)
    denied_providers: list[int] = field(default_factory=list)
    failed_providers: list[int] = field(default_factory=list)
    retransmissions: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def contacted(self) -> int:
        return (
            len(self.positive_providers)
            + len(self.noise_providers)
            + len(self.denied_providers)
            + len(self.failed_providers)
        )


class PPIServerNode(Node):
    """The third-party locator service hosting the published index.

    The server is *untrusted*: everything it stores (the published matrix)
    is public information, which is the whole point of the PPI design.
    """

    def __init__(self, node_id: int, index: PostingsIndex):
        super().__init__(node_id)
        self.index = index
        self.queries_served = 0

    def on_message(self, message: Message) -> None:
        if message.kind != QUERY:
            raise RuntimeError(f"unexpected message kind {message.kind}")
        owner_id = message.payload
        self.compute(LOOKUP_COMPUTE_S)
        providers = self.index.query(owner_id)
        self.queries_served += 1
        self.send(
            message.sender,
            QUERY_REPLY,
            (owner_id, providers),
            payload_bits=32 * max(1, len(providers)),
        )


class ProviderServiceNode(Node):
    """A provider's service endpoint: ACL check + local record search.

    Stateless per request, so retransmitted requests are answered
    idempotently (at-least-once semantics from the searcher's side).
    """

    def __init__(self, node_id: int, provider: Provider, acl: AccessControl):
        super().__init__(node_id)
        self.provider = provider
        self.acl = acl
        self.requests_served = 0
        self.denials = 0

    def on_message(self, message: Message) -> None:
        if message.kind != SEARCH:
            raise RuntimeError(f"unexpected message kind {message.kind}")
        searcher_name, owner_id = message.payload
        self.compute(ACL_COMPUTE_S)
        self.requests_served += 1
        if not self.acl.authorize(searcher_name, owner_id):
            self.denials += 1
            reply = ("denied", [])
            bits = 16
        else:
            records = self.provider.records.get(owner_id, [])
            reply = ("ok", records)
            bits = 16 + RECORD_BITS * len(records)
        self.send(message.sender, SEARCH_REPLY, reply, payload_bits=bits)


class SearcherNode(Node):
    """A searcher driving two-phase lookups for a queue of owners."""

    def __init__(
        self,
        node_id: int,
        name: str,
        server_id: int,
        provider_node_ids: dict[int, int],
        queries: list[int],
        on_complete: Optional[Callable[[SearchOutcome], None]] = None,
        timeout_s: float = 0.05,
        max_retries: int = 3,
    ):
        super().__init__(node_id)
        self.name = name
        self.server_id = server_id
        self.provider_node_ids = provider_node_ids  # provider id -> node id
        self._queue = list(queries)
        self._on_complete = on_complete
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.outcomes: list[SearchOutcome] = []
        self._current: Optional[SearchOutcome] = None
        self._node_to_provider = {v: k for k, v in provider_node_ids.items()}
        self._query_answered = False
        self._query_attempts = 0
        self._awaiting: dict[int, int] = {}  # provider id -> attempts so far
        # Serial number of the in-flight query: timer callbacks capture it
        # so a timer armed for query k is inert once query k+1 started.
        self._serial = 0

    def on_start(self) -> None:
        self._next_query()

    # -- phase 1 ------------------------------------------------------------

    def _next_query(self) -> None:
        if not self._queue:
            return
        owner_id = self._queue.pop(0)
        self._serial += 1
        self._current = SearchOutcome(owner_id=owner_id, started_at=self.now)
        self._query_answered = False
        self._query_attempts = 1
        self.send(self.server_id, QUERY, owner_id, payload_bits=64)
        serial = self._serial
        self.set_timer(self.timeout_s, lambda: self._query_timeout(serial))

    def _query_timeout(self, serial: int) -> None:
        if serial != self._serial or self._query_answered or self._current is None:
            return
        if self._query_attempts > self.max_retries:
            # Locator service unreachable: give up on this query.
            self._current.finished_at = self.now
            self._finish()
            return
        self._query_attempts += 1
        self._current.retransmissions += 1
        self.send(self.server_id, QUERY, self._current.owner_id, payload_bits=64)
        self.set_timer(self.timeout_s, lambda: self._query_timeout(serial))

    def on_message(self, message: Message) -> None:
        if message.kind == QUERY_REPLY:
            self._on_query_reply(message)
        elif message.kind == SEARCH_REPLY:
            self._on_search_reply(message)
        else:
            raise RuntimeError(f"unexpected message kind {message.kind}")

    def _on_query_reply(self, message: Message) -> None:
        if self._query_answered or self._current is None:
            return  # duplicate reply to a retransmitted query
        self._query_answered = True
        owner_id, providers = message.payload
        outcome = self._current
        if not providers:
            outcome.finished_at = self.now
            self._finish()
            return
        # Phase 2: AuthSearch fan-out to every candidate in parallel.
        self._awaiting = {pid: 1 for pid in providers}
        for pid in providers:
            self._send_search(pid, owner_id)
        serial = self._serial
        self.set_timer(self.timeout_s, lambda: self._search_timeout(serial))

    # -- phase 2 --------------------------------------------------------------

    def _send_search(self, pid: int, owner_id: int) -> None:
        self.send(
            self.provider_node_ids[pid],
            SEARCH,
            (self.name, owner_id),
            payload_bits=128,
        )

    def _search_timeout(self, serial: int) -> None:
        if serial != self._serial or self._current is None or not self._awaiting:
            return
        outcome = self._current
        for pid in list(self._awaiting):
            attempts = self._awaiting[pid]
            if attempts > self.max_retries:
                del self._awaiting[pid]
                outcome.failed_providers.append(pid)
            else:
                self._awaiting[pid] = attempts + 1
                outcome.retransmissions += 1
                self._send_search(pid, outcome.owner_id)
        if self._awaiting:
            self.set_timer(self.timeout_s, lambda: self._search_timeout(serial))
        else:
            outcome.finished_at = self.now
            self._finish()

    def _on_search_reply(self, message: Message) -> None:
        if self._current is None:
            return
        pid = self._node_to_provider[message.sender]
        if pid not in self._awaiting:
            return  # duplicate or post-failure reply
        del self._awaiting[pid]
        self.compute(CONTACT_COMPUTE_S)
        status, records = message.payload
        outcome = self._current
        if status == "denied":
            outcome.denied_providers.append(pid)
        elif records:
            outcome.positive_providers.append(pid)
            outcome.records.extend(records)
        else:
            outcome.noise_providers.append(pid)
        if not self._awaiting:
            outcome.finished_at = self.now
            self._finish()

    def _finish(self) -> None:
        outcome = self._current
        self._current = None
        self._awaiting = {}
        self.outcomes.append(outcome)
        if self._on_complete:
            self._on_complete(outcome)
        self._next_query()
