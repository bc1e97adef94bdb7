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
query).  Replies echo their request's query serial, so a late reply to
an earlier query is dropped rather than taken as the current one's answer.
Phase 2's answer and classifier come from :mod:`repro.core.authsearch`.

The simulation yields the end-to-end *search latency* and per-query message
cost -- the operational face of the privacy/overhead trade-off benchmarked
in `benchmarks/bench_search_latency.py`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.authsearch import AccessControl, SearchOutcome, answer_search
from repro.core.model import Provider
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
]

QUERY = "service/query"
QUERY_REPLY = "service/query-reply"
SEARCH = "service/search"
SEARCH_REPLY = "service/search-reply"
# Payloads: each request leads with its searcher's query serial and each
# reply echoes it.  QUERY (serial, owner_id) -> QUERY_REPLY (serial,
# providers); SEARCH (serial, searcher, owner_id) -> SEARCH_REPLY (serial,
# status, records).

# CPU cost models for service-side work.
LOOKUP_COMPUTE_S = 1e-5  # index lookup at the PPI server
ACL_COMPUTE_S = 5e-5  # authentication + authorization at a provider
# Searcher-side cost per provider contact (session setup, credential
# presentation, response validation) -- this is what makes noise providers
# expensive for the client even though the fan-out is parallel.
CONTACT_COMPUTE_S = 2e-4
RECORD_BITS = 4096  # wire size of one personal record


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
        serial, owner_id = message.payload
        self.compute(LOOKUP_COMPUTE_S)
        providers = self.index.query(owner_id)
        self.queries_served += 1
        self.send(
            message.sender,
            QUERY_REPLY,
            (serial, providers),
            payload_bits=32 * max(1, len(providers)),
        )


class ProviderServiceNode(Node):
    """A provider's service endpoint, answering with
    :func:`~repro.core.authsearch.answer_search`.

    Stateless per request, so retransmitted requests are answered
    idempotently (at-least-once semantics from the searcher's side).
    """

    def __init__(self, node_id: int, provider: Provider, acl: AccessControl):
        super().__init__(node_id)
        self.provider = provider
        self.acl = acl

    def on_message(self, message: Message) -> None:
        if message.kind != SEARCH:
            raise RuntimeError(f"unexpected message kind {message.kind}")
        serial, searcher_name, owner_id = message.payload
        self.compute(ACL_COMPUTE_S)
        status, records = answer_search(self.provider, self.acl, searcher_name, owner_id)
        self.send(
            message.sender,
            SEARCH_REPLY,
            (serial, status, records),
            payload_bits=16 + RECORD_BITS * len(records),
        )


class SearcherNode(Node):
    """A searcher driving two-phase lookups for a queue of owners."""

    def __init__(
        self,
        node_id: int,
        name: str,
        server_id: int,
        provider_node_ids: dict[int, int],
        queries: list[int],
        timeout_s: float = 0.05,
        max_retries: int = 3,
    ):
        super().__init__(node_id)
        self.name = name
        self.server_id = server_id
        self.provider_node_ids = provider_node_ids  # provider id -> node id
        self._queue = list(queries)
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.outcomes: list[SearchOutcome] = []
        self._current: Optional[SearchOutcome] = None
        self._started_at = 0.0
        self._node_to_provider = {v: k for k, v in provider_node_ids.items()}
        self._query_answered = False
        self._query_attempts = 0
        self._awaiting: dict[int, int] = {}  # provider id -> attempts so far
        # Serial number of the in-flight query.  Requests carry it and
        # replies echo it, and timer callbacks capture it, so a reply or a
        # timer that belongs to query k is inert once query k+1 started.
        self._serial = 0

    def on_start(self) -> None:
        self._next_query()

    # -- phase 1 ------------------------------------------------------------

    def _next_query(self) -> None:
        if not self._queue:
            return
        self._serial += 1
        self._current = SearchOutcome(owner_id=self._queue.pop(0))
        self._started_at = self.now
        self._query_answered = False
        self._query_attempts = 1
        self._send_query()
        serial = self._serial
        self.set_timer(self.timeout_s, lambda: self._query_timeout(serial))

    def _send_query(self) -> None:
        self.send(self.server_id, QUERY, (self._serial, self._current.owner_id), payload_bits=64)

    def _query_timeout(self, serial: int) -> None:
        if serial != self._serial or self._query_answered or self._current is None:
            return
        if self._query_attempts > self.max_retries:
            # Locator service unreachable: give up on this query.
            self._finish()
            return
        self._query_attempts += 1
        self._current.retries += 1
        self._send_query()
        self.set_timer(self.timeout_s, lambda: self._query_timeout(serial))

    def on_message(self, message: Message) -> None:
        if message.kind == QUERY_REPLY:
            self._on_query_reply(message)
        elif message.kind == SEARCH_REPLY:
            self._on_search_reply(message)
        else:
            raise RuntimeError(f"unexpected message kind {message.kind}")

    def _on_query_reply(self, message: Message) -> None:
        serial, providers = message.payload
        if serial != self._serial or self._query_answered or self._current is None:
            return  # an earlier query's reply, or a duplicate
        self._query_answered = True
        if not providers:
            self._finish()
            return
        # Phase 2: AuthSearch fan-out to every candidate in parallel.
        self._awaiting = {pid: 1 for pid in providers}
        for pid in providers:
            self._send_search(pid)
        self.set_timer(self.timeout_s, lambda: self._search_timeout(serial))

    # -- phase 2 --------------------------------------------------------------

    def _send_search(self, pid: int) -> None:
        self.send(
            self.provider_node_ids[pid],
            SEARCH,
            (self._serial, self.name, self._current.owner_id),
            payload_bits=128,
        )

    def _search_timeout(self, serial: int) -> None:
        if serial != self._serial or self._current is None or not self._awaiting:
            return
        for pid in list(self._awaiting):
            attempts = self._awaiting[pid]
            if attempts > self.max_retries:
                del self._awaiting[pid]
                self._current.failed_providers.append(pid)
            else:
                self._awaiting[pid] = attempts + 1
                self._current.retries += 1
                self._send_search(pid)
        if self._awaiting:
            self.set_timer(self.timeout_s, lambda: self._search_timeout(serial))
        else:
            self._finish()

    def _on_search_reply(self, message: Message) -> None:
        serial, status, records = message.payload
        pid = self._node_to_provider[message.sender]
        if serial != self._serial or pid not in self._awaiting:
            return  # an earlier query's reply, a duplicate or post-failure
        del self._awaiting[pid]
        self.compute(CONTACT_COMPUTE_S)
        self._current.add(pid, status, records)
        if not self._awaiting:
            self._finish()

    def _finish(self) -> None:
        outcome = self._current
        outcome.latency_s = self.now - self._started_at
        self._current = None
        self._awaiting = {}
        self.outcomes.append(outcome)
        self._next_query()
