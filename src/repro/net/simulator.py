"""Deterministic discrete-event network simulator.

This substrate stands in for the paper's Emulab deployment (real machines,
Netty transport).  Protocol code runs as :class:`Node` actors exchanging
:class:`~repro.net.transport.Message` objects; the simulator delivers each
message after the latency-model transit time and charges declared compute
time to the receiving node, so the resulting ``finish_time_s`` is the same
start-to-end execution-time metric the paper reports.

The locator service's serving stack runs on the virtual-clock asyncio
loop of :mod:`repro.net.virtual` instead; this simulator carries the
construction protocols, which are message-passing actors.

Determinism: event ordering ties are broken by a monotone sequence number,
so a fixed protocol always yields the identical trace (an invariant covered
by the test suite).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.net.latency import EMULAB_LAN, LatencyModel
from repro.net.metrics import NetworkMetrics
from repro.net.transport import Message

__all__ = ["Simulator", "Node"]


class Node:
    """Base class for protocol actors.

    Subclasses implement :meth:`on_start` and :meth:`on_message`.  A node has
    a private busy-clock: incoming messages queue behind compute it already
    scheduled, mimicking a single-threaded event-loop server.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._sim: Optional["Simulator"] = None
        self._available_at = 0.0

    # -- lifecycle hooks (overridden by protocols) -----------------------------

    def on_start(self) -> None:
        """Called once at simulation start."""

    def on_message(self, message: Message) -> None:
        """Called when a message is delivered to this node."""

    # -- actions available to protocol code ------------------------------------

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise RuntimeError("node is not attached to a simulator")
        return self._sim

    @property
    def now(self) -> float:
        return self.sim.now

    def send(self, recipient: int, kind: str, payload, payload_bits: int) -> None:
        """Queue a message to another node (delivered after transit time)."""
        self.sim._dispatch(
            Message(
                sender=self.node_id,
                recipient=recipient,
                kind=kind,
                payload=payload,
                payload_bits=payload_bits,
            )
        )

    def compute(self, seconds: float) -> None:
        """Charge local CPU time; later deliveries queue behind it."""
        if seconds < 0:
            raise ValueError(f"compute time must be >= 0, got {seconds}")
        busy_from = max(self._available_at, self.sim.now)
        self._available_at = busy_from + seconds
        self.sim.metrics.observe_time(self._available_at)


class Simulator:
    """Event loop: attach nodes, call :meth:`run`, read :attr:`metrics`."""

    def __init__(self, latency: LatencyModel = EMULAB_LAN):
        self.latency = latency
        self.nodes: dict[int, Node] = {}
        self.metrics = NetworkMetrics()
        self.now = 0.0
        self._queue: list[tuple[float, int, Message]] = []
        self._seq = itertools.count()
        self._started = False

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        node._sim = self
        self.nodes[node.node_id] = node
        return node

    def _dispatch(self, message: Message) -> None:
        if message.recipient not in self.nodes:
            raise ValueError(f"unknown recipient {message.recipient}")
        sender_node = self.nodes[message.sender]
        # A node cannot transmit before its pending compute finishes.
        depart = max(self.now, sender_node._available_at)
        self.metrics.record_send(message.sender, message.kind, message.total_bits)
        arrival = depart + self.latency.transit_time(message)
        heapq.heappush(self._queue, (arrival, next(self._seq), message))

    def run(self, max_events: int = 10_000_000) -> NetworkMetrics:
        """Start all nodes and drain the event queue to quiescence."""
        if not self._started:
            self._started = True
            for node in self.nodes.values():
                node.on_start()
        events = 0
        while self._queue:
            events += 1
            if events > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events (livelock?)"
                )
            when, _, message = heapq.heappop(self._queue)
            node = self.nodes[message.recipient]
            # Delivery waits for the node to become free.
            self.now = max(when, node._available_at)
            self.metrics.observe_time(self.now)
            node.on_message(message)
        return self.metrics
