"""Replication verbs and payload helpers.

The replication plane speaks the ordinary serving wire protocol -- no new
framing.  The protocol carries unknown verbs through its JSON extension
escape (``VERB_ID_EXT``), so the ``repl-*`` verbs below ride ordinary
frames without touching the frozen binary format or its golden files.

Segment payloads are raw ``*.seg.npz`` bytes, base64-armored into the JSON
payload and shipped in bounded chunks: every chunk stays comfortably under
the 16 MiB ``MAX_FRAME_BYTES`` frame cap regardless of segment size, and a
follower that dies mid-transfer resumes at its last durable byte offset.
"""

from __future__ import annotations

import base64

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "VERB_REPL_EPOCH",
    "VERB_REPL_PROMOTE",
    "VERB_REPL_SEGMENT",
    "VERB_REPL_STATUS",
    "VERB_REPL_SUBSCRIBE",
    "decode_chunk",
    "encode_chunk",
]

#: leader's current epoch + the sealed-segment manifest
VERB_REPL_EPOCH = "repl-epoch"
#: manifest from a resume cursor (the tail of the manifest after a name)
VERB_REPL_SUBSCRIBE = "repl-subscribe"
#: one bounded chunk of one sealed segment's bytes
VERB_REPL_SEGMENT = "repl-segment"
#: follower applier state (served by ReplicaServer)
VERB_REPL_STATUS = "repl-status"
#: detach a follower from its leader and make it a primary
VERB_REPL_PROMOTE = "repl-promote"

#: raw bytes per repl-segment chunk; base64 inflates by 4/3, leaving a wide
#: margin under the 16 MiB frame cap.
DEFAULT_CHUNK_BYTES = 4 * 2**20


def encode_chunk(data: bytes) -> str:
    """Armor one chunk of segment bytes for a JSON payload."""
    return base64.b64encode(data).decode("ascii")


def decode_chunk(text: str) -> bytes:
    if not isinstance(text, str):
        raise ValueError(f"chunk data must be a base64 string, got {type(text).__name__}")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:  # noqa: BLE001 -- normalize binascii/Value errors
        raise ValueError(f"undecodable segment chunk: {exc}") from exc
