"""A provider's AuthSearch endpoint on the real network.

Phase 2 of the two-phase search (paper Sec. II-A): the searcher contacts a
candidate provider, authenticates, and -- if the provider's local
:class:`~repro.core.authsearch.AccessControl` authorizes it -- receives the
owner's records.  A *noise* provider answers ``ok`` with an empty record
list: the searcher pays the round trip and learns the published list
contained a false positive, exactly the privacy/overhead trade-off the
index was tuned for.

The answer itself is :func:`repro.core.authsearch.answer_search`, the one
every substrate gives; this module only puts it on the wire.  It is
stateless, so retried requests are idempotent (at-least-once semantics
from the client's side).  A ``searcher`` that is not a string or an
``owner`` that is not an integer (a bool is not one) is a ``bad-request``.
"""

from __future__ import annotations

from typing import Any

from repro.core.authsearch import DENIED, AccessControl, answer_search
from repro.core.model import Provider, Record
from repro.serving.protocol import VERB_SEARCH, ok_response
from repro.serving.server import ServingNode

__all__ = ["ProviderEndpoint", "record_to_wire", "record_from_wire"]


def record_to_wire(record: Record) -> dict[str, Any]:
    return {"owner_id": record.owner_id, "payload": record.payload}


def record_from_wire(obj: dict[str, Any]) -> Record:
    """A record the decoder checked: an ``int`` owner id, a ``str`` payload."""
    return Record(owner_id=obj["owner_id"], payload=obj["payload"])


class ProviderEndpoint(ServingNode):
    """One provider's service endpoint, answering ``search`` with
    :func:`~repro.core.authsearch.answer_search`."""

    role = "provider"
    verbs = ServingNode.verbs | {VERB_SEARCH}

    def __init__(
        self,
        provider: Provider,
        acl: AccessControl,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
    ):
        super().__init__(host=host, port=port, max_inflight=max_inflight)
        self.provider = provider
        self.acl = acl

    async def handle(
        self, verb: str, message: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        if verb == VERB_SEARCH:
            status, records = answer_search(
                self.provider, self.acl, message.get("searcher"), message.get("owner")
            )
            self.metrics.counter("searches_served").inc()
            if status == DENIED:
                self.metrics.counter("denials").inc()
            return ok_response(
                request_id,
                status=status,
                records=[record_to_wire(r) for r in records],
            )
        return await super().handle(verb, message, request_id)

    def describe(self) -> dict[str, Any]:
        base = super().describe()
        base.update(
            provider_id=self.provider.provider_id,
            provider_name=self.provider.name,
            n_owners_held=len(self.provider.records),
        )
        return base
