"""A virtual-clock asyncio event loop: real asyncio code on a simulated LAN.

:class:`VirtualClockLoop` runs unmodified asyncio programs -- the serving
stack's :class:`~repro.serving.server.PPIServer`,
:class:`~repro.serving.provider.ProviderEndpoint` and
:class:`~repro.serving.client.LocatorClient` -- in simulated time, using
public asyncio API only:

* the loop's selector never blocks: when nothing is ready it moves
  ``loop.time()`` forward to the next timer, so a 2 s timeout costs no
  wall time;
* ``create_server`` / ``create_connection`` (and so ``asyncio.start_server``
  / ``asyncio.open_connection``) connect in memory, at once.  Each
  ``write`` is one message: it arrives after
  :meth:`~repro.net.latency.LatencyModel.transit_time` of its real byte
  count (plus the modelled TCP/IP header), in order on its connection, is
  counted in :attr:`VirtualClockLoop.metrics`, and is dropped with the
  seeded probability ``loss_probability``;
* each host is single-threaded in virtual time, under the busy-clock rule
  of :meth:`repro.net.simulator.Node.compute`: a message waits until its
  host is free, is handed over, and charges the compute ``classify``
  names for it; the host's writes leave once that compute is done.

A listener's host is its address.  A connecting task's host is whatever
:meth:`VirtualClockLoop.act_as` named for it (``"client"`` by default).
Given the same program, seeds and latency model, every run takes the same
virtual time and sends the same bytes.  Work handed to threads (executors)
is waited for in real time; nothing in the simulated deployment uses one.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import itertools
import random
import selectors
from typing import Callable, Hashable

from repro.net.latency import EMULAB_LAN, LatencyModel
from repro.net.metrics import NetworkMetrics
from repro.net.transport import Message

__all__ = ["VirtualClockLoop"]

_host: "contextvars.ContextVar[Hashable]" = contextvars.ContextVar(
    "virtual_host", default="client"
)

_EOF = object()  # end of stream, queued behind the data already in flight


def _unclassified(data: bytes) -> tuple[str, float]:
    return "write", 0.0


class _Selector(selectors.DefaultSelector):
    """Polls the loop's own descriptors and, when none is ready, advances
    the virtual clock by the loop's timeout instead of sleeping."""

    now = 0.0

    def select(self, timeout=None):
        ready = super().select(0)
        if ready:
            return ready
        if timeout is None:  # no timer left: only a worker thread can wake us
            return super().select(None)
        self.now += timeout
        return []


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An asyncio loop whose clock, sockets and hosts are simulated.

    ``classify(data) -> (kind, compute_s)`` names each message's kind for
    :attr:`metrics` and the compute its receiving host spends on it.
    """

    def __init__(
        self,
        latency: LatencyModel = EMULAB_LAN,
        loss_probability: float = 0.0,
        loss_seed: int = 0,
        classify: Callable[[bytes], tuple] = _unclassified,
    ):
        self._vclock = _Selector()
        super().__init__(self._vclock)
        if not 0.0 <= loss_probability < 1.0:
            self.close()
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        self.latency = latency
        self.loss_probability = loss_probability
        self.classify = classify
        self.metrics = NetworkMetrics()
        self.dropped_messages = 0
        self._loss_rng = random.Random(loss_seed)
        self._listeners: dict[tuple, Callable] = {}
        self._ports = itertools.count(1)
        self._free_at: dict[Hashable, float] = {}  # host -> end of its compute

    def time(self) -> float:
        return self._vclock.now

    @staticmethod
    def act_as(host: Hashable) -> None:
        """Make the calling task, and the tasks it starts from now on, the
        host ``host``: its connections' writes leave when that host is free,
        and their replies queue behind that host's compute."""
        _host.set(host)

    # -- in-memory sockets ------------------------------------------------------

    async def create_server(self, protocol_factory, host=None, port=None, **_):
        address = (host or "0.0.0.0", port or next(self._ports))
        if address in self._listeners:
            raise OSError(f"address {address} already in use")
        self._listeners[address] = protocol_factory
        return _Listener(self, address)

    async def create_connection(self, protocol_factory, host=None, port=None, **_):
        factory = self._listeners.get((host, port))
        if factory is None:
            raise ConnectionRefusedError(f"nothing listens on {host}:{port}")
        client = _Transport(self, protocol_factory(), _host.get())
        server = _Transport(self, factory(), (host, port))
        client.peer, server.peer = server, client
        self.call_soon(server.protocol.connection_made, server)
        client.protocol.connection_made(client)
        return client, client.protocol

    def _transmit(self, sender: "_Transport", data) -> None:
        """Put one write (or the end of stream) on the wire to the peer."""
        if data is _EOF:
            kind, compute_s = "eof", 0.0
            message = Message(sender.host, sender.peer.host, kind, None, 0)
        else:
            kind, compute_s = self.classify(data)
            message = Message(sender.host, sender.peer.host, kind, None, 8 * len(data))
            self.metrics.record_send(sender.host, kind, message.total_bits)
            if self.loss_probability and self._loss_rng.random() < self.loss_probability:
                self.dropped_messages += 1
                return
        depart = max(self.time(), self._free_at.get(sender.host, 0.0))
        # One TCP stream: a message never overtakes the one sent before it.
        sender.last_arrival = max(
            depart + self.latency.transit_time(message), sender.last_arrival
        )
        sender.in_flight.append((data, compute_s))
        self.call_at(sender.last_arrival, self._arrive, sender.peer)

    def _arrive(self, receiver: "_Transport") -> None:
        """The oldest message in flight to ``receiver`` reached its host:
        hand it over once the host is free, and charge its compute."""
        data, compute_s = receiver.peer.in_flight.popleft()
        if receiver.closing:
            return  # the reader is gone: nothing to hand over or compute
        start = max(self.time(), self._free_at.get(receiver.host, 0.0))
        self._free_at[receiver.host] = start + compute_s
        if data is not _EOF:
            self.metrics.observe_time(start + compute_s)
        receiver.inbox.append(data)
        if start > self.time() or len(receiver.inbox) > 1:
            self.call_at(start, receiver.hand_over)
        else:  # host free, nothing queued ahead: no timer needed
            receiver.hand_over()


class _Listener(asyncio.AbstractServer):
    def __init__(self, loop: VirtualClockLoop, address: tuple):
        self._loop = loop
        self.address = address
        # ``sockets[0].getsockname()`` names the bound address, as on a socket.
        self.sockets = [_SocketName(address)]

    def close(self) -> None:
        self._loop._listeners.pop(self.address, None)

    async def wait_closed(self) -> None:
        return None


class _SocketName:
    def __init__(self, address: tuple):
        self._address = address

    def getsockname(self) -> tuple:
        return self._address


class _Transport(asyncio.Transport):
    """One end of an in-memory connection; writes go to :attr:`peer`."""

    def __init__(self, loop: VirtualClockLoop, protocol, host: Hashable):
        super().__init__()
        self.loop = loop
        self.protocol = protocol
        self.host = host
        self.peer: "_Transport" = None
        self.closing = False
        self.last_arrival = 0.0
        self.in_flight: collections.deque = collections.deque()  # sent, not arrived
        self.inbox: collections.deque = collections.deque()  # arrived, not handed over

    def is_closing(self) -> bool:
        return self.closing

    def write(self, data) -> None:
        if not self.closing:
            self.loop._transmit(self, bytes(data))

    def close(self) -> None:
        if self.closing:
            return
        self.closing = True
        self.loop._transmit(self, _EOF)
        self.loop.call_soon(self.protocol.connection_lost, None)

    abort = close

    def get_write_buffer_size(self) -> int:
        return 0

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass

    def hand_over(self) -> None:
        data = self.inbox.popleft()
        if self.closing:
            return
        if data is not _EOF:
            self.protocol.data_received(data)
        elif not self.protocol.eof_received():
            self.close()
