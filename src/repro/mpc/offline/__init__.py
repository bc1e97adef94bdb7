"""Dealerless asynchronous offline phase for the GMW engines.

Produces Beaver bit-triples without the trusted dealer: a simulated
OT-extension generator (:mod:`.generator`) runs in the producer threads of
a :class:`~repro.mpc.offline.factory.TripleFactory`, which claim chunks
from and put finished blocks into one bounded, backpressured
:class:`~repro.mpc.offline.factory.TripleQueue` ahead of and concurrently
with the online phase; the engines draw from it through
:class:`~repro.mpc.offline.factory.FactoryTripleSource`.  See DESIGN.md
§7.9.
"""

from repro.mpc.offline.factory import (
    FactoryTripleSource,
    OfflineError,
    OfflineExhausted,
    OfflineProducerError,
    QueueClosed,
    TripleFactory,
    TripleQueue,
)
from repro.mpc.offline.generator import (
    DEFAULT_OFFLINE_BANDWIDTH_BPS,
    DEFAULT_OFFLINE_LATENCY_S,
    KAPPA,
    DealerlessTripleGenerator,
    TripleBlock,
    splitmix64,
)
from repro.mpc.offline.phases import PhaseReport, PhaseStats

__all__ = [
    "KAPPA",
    "DEFAULT_OFFLINE_BANDWIDTH_BPS",
    "DEFAULT_OFFLINE_LATENCY_S",
    "DealerlessTripleGenerator",
    "TripleBlock",
    "splitmix64",
    "TripleFactory",
    "TripleQueue",
    "FactoryTripleSource",
    "PhaseReport",
    "PhaseStats",
    "OfflineError",
    "OfflineExhausted",
    "OfflineProducerError",
    "QueueClosed",
]
