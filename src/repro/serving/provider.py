"""A provider's AuthSearch endpoint on the real network.

Phase 2 of the two-phase search (paper Sec. II-A): the searcher contacts a
candidate provider, authenticates, and -- if the provider's local
:class:`~repro.core.authsearch.AccessControl` authorizes it -- receives the
owner's records.  A *noise* provider answers ``ok`` with an empty record
list: the searcher pays the round trip and learns the published list
contained a false positive, exactly the privacy/overhead trade-off the
index was tuned for.

Request handling is stateless, so retried requests are idempotent
(at-least-once semantics from the client's side), matching
:class:`repro.service.nodes.ProviderServiceNode` on the simulator.
"""

from __future__ import annotations

from typing import Any

from repro.core.authsearch import AccessControl
from repro.core.model import Provider, Record
from repro.serving.protocol import VERB_SEARCH, ok_response
from repro.serving.server import ServingNode

__all__ = ["ProviderEndpoint", "record_to_wire", "record_from_wire"]


def record_to_wire(record: Record) -> dict[str, Any]:
    return {"owner_id": record.owner_id, "payload": record.payload}


def record_from_wire(obj: dict[str, Any]) -> Record:
    return Record(owner_id=int(obj["owner_id"]), payload=str(obj.get("payload", "")))


class ProviderEndpoint(ServingNode):
    """One provider's service endpoint: ACL check + local record search."""

    role = "provider"

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
            searcher = message.get("searcher")
            owner_id = message.get("owner")
            if not isinstance(searcher, str) or not isinstance(owner_id, int):
                raise ValueError("search needs a 'searcher' name and an 'owner' id")
            self.metrics.counter("searches_served").inc()
            if not self.acl.authorize(searcher, owner_id):
                self.metrics.counter("denials").inc()
                return ok_response(request_id, status="denied", records=[])
            records = self.provider.records.get(owner_id, [])
            return ok_response(
                request_id,
                status="ok",
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
