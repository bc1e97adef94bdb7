"""Message schema of the serving runtime, shared by both ends.

Every message is a dict.  The bytes that carry it are
:mod:`repro.serving.protocol_v2`'s binary frames; this module holds what
client and server agree on above the framing.  Requests and responses are
matched by an ``id`` the client chooses (monotonically increasing per
connection), so a pooled connection is reusable across requests without
ambiguity.

Request::

    {"id": 7, "verb": "query", "owner": 42}

Response (success)::

    {"id": 7, "ok": true, "providers": [3, 9, 17]}

Response (failure)::

    {"id": 7, "ok": false, "code": "wrong-shard", "error": "...", ...}

Verbs
-----

=================  =======================  =====================================
verb               served by                semantics
=================  =======================  =====================================
``ping``           server + provider        liveness probe, echoes ``{}``
``stats``          server + provider        metrics registry snapshot
``info``           server + provider        static facts (shard spec, sizes)
``query``          :class:`PPIServer`       ``QueryPPI(t)`` -> obscured list
``query-batch``    :class:`PPIServer`       many ``QueryPPI`` in one round trip
``reload``         :class:`PPIServer`       hot-swap the index from a snapshot
``search``         :class:`ProviderEndpoint`  ``AuthSearch``: ACL check + records
=================  =======================  =====================================

The index is static *within a publication epoch* (paper Sec. III-C), which
is what makes client-side result caching and idempotent retries safe:
re-asking the same ``query`` can never return a different list until the
fleet hot-swaps to a new epoch.  Every ``query`` / ``query-batch`` response
therefore carries the serving ``epoch``, so caches can be invalidated the
moment a newer epoch is first observed (see ``docs/PROTOCOL.md``).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "MAX_FRAME_BYTES",
    "VERB_INFO",
    "VERB_PING",
    "VERB_QUERY",
    "VERB_QUERY_BATCH",
    "VERB_RELOAD",
    "VERB_SEARCH",
    "VERB_STATS",
    "ConnectionClosed",
    "FrameTooLarge",
    "ProtocolError",
    "RemoteError",
    "error_response",
    "ok_response",
    "raise_for_response",
    "request",
]

# Refuse absurd frames before allocating: a full broadcast reply for a
# million-owner batch is still far below this.
MAX_FRAME_BYTES = 16 * 2**20

VERB_PING = "ping"
VERB_STATS = "stats"
VERB_INFO = "info"
VERB_QUERY = "query"
VERB_QUERY_BATCH = "query-batch"
VERB_RELOAD = "reload"
VERB_SEARCH = "search"


class ProtocolError(Exception):
    """Malformed frame or message."""


class FrameTooLarge(ProtocolError):
    """A frame to encode is above :data:`MAX_FRAME_BYTES`."""


class ConnectionClosed(ProtocolError):
    """Peer closed the connection, between frames or mid-frame."""


class RemoteError(Exception):
    """The peer answered with ``ok: false``.

    ``code`` is a machine-readable discriminator (``"wrong-shard"``,
    ``"unknown-verb"``, ``"bad-request"``, ``"internal"``); ``detail`` keeps
    any extra response fields (e.g. the correct shard id).
    """

    def __init__(self, code: str, message: str, detail: Optional[dict] = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.detail = detail or {}


# -- message constructors ----------------------------------------------------


def request(verb: str, request_id: int, **fields: Any) -> dict[str, Any]:
    return {"id": request_id, "verb": verb, **fields}


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    return {"id": request_id, "ok": True, **fields}


def error_response(
    request_id: Any, code: str, message: str, **fields: Any
) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "code": code, "error": message, **fields}


def raise_for_response(response: dict[str, Any]) -> dict[str, Any]:
    """Return the response if ``ok``, else raise :class:`RemoteError`."""
    if response.get("ok"):
        return response
    detail = {
        k: v for k, v in response.items() if k not in ("id", "ok", "code", "error")
    }
    raise RemoteError(
        str(response.get("code", "internal")),
        str(response.get("error", "unknown remote error")),
        detail,
    )
