"""Tests for the virtual-clock asyncio loop and its in-memory sockets."""

import asyncio
import time

import pytest

from repro.net.latency import LatencyModel
from repro.net.transport import HEADER_BITS
from repro.net.virtual import VirtualClockLoop

LAN = LatencyModel(base_latency_s=0.001, bandwidth_bps=8e6)  # 1 ms + 1 µs per byte


def run(loop, coro):
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class _Recorder(asyncio.Protocol):
    """A listener that records (virtual time, bytes) per hand-over."""

    def __init__(self, log):
        self.log = log

    def data_received(self, data):
        self.log.append((asyncio.get_running_loop().time(), data))


async def _listen(loop, log):
    server = await loop.create_server(lambda: _Recorder(log), "10.0.0.1", 0)
    return server.sockets[0].getsockname()


def test_a_timeout_costs_no_wall_time():
    loop = VirtualClockLoop()
    started = time.monotonic()
    run(loop, asyncio.sleep(3600))
    assert loop.time() == pytest.approx(3600)
    assert time.monotonic() - started < 5


def test_a_write_arrives_after_transit_of_its_bytes():
    loop = VirtualClockLoop(LAN)
    log = []

    async def main():
        host, port = await _listen(loop, log)
        _, writer = await asyncio.open_connection(host, port)
        writer.write(b"x" * 1000)
        await asyncio.sleep(1)
        writer.close()

    run(loop, main())
    bits = 8 * 1000 + HEADER_BITS
    assert log == [(pytest.approx(0.001 + bits / 8e6), b"x" * 1000)]
    assert loop.metrics.messages == 1 and loop.metrics.bits_sent == bits


def test_a_connection_keeps_its_order():
    """A small write never overtakes a large one sent before it."""
    loop = VirtualClockLoop(LAN)
    log = []

    async def main():
        _, writer = await asyncio.open_connection(*await _listen(loop, log))
        writer.write(b"a" * 10_000)
        writer.write(b"b")
        await asyncio.sleep(1)
        writer.close()

    run(loop, main())
    assert b"".join(data for _, data in log) == b"a" * 10_000 + b"b"
    assert log[0][0] <= log[1][0]


def test_a_host_is_single_threaded():
    """Two writes reaching one host at once are handed over one compute
    charge apart, in arrival order."""
    loop = VirtualClockLoop(LAN, classify=lambda data: ("write", 0.005))
    log = []

    async def client(name, addr):
        loop.act_as(name)
        _, writer = await asyncio.open_connection(*addr)
        writer.write(name.encode())
        await asyncio.sleep(1)
        writer.close()

    async def main():
        addr = await _listen(loop, log)
        await asyncio.gather(client("a", addr), client("b", addr))

    run(loop, main())
    (t_a, a), (t_b, b) = log
    assert (a, b) == (b"a", b"b")
    assert t_b - t_a == pytest.approx(0.005)
    assert loop.metrics.per_node_messages == {"a": 1, "b": 1}


def test_loss_is_seeded():
    def dropped(seed):
        loop = VirtualClockLoop(LAN, loss_probability=0.5, loss_seed=seed)
        log = []

        async def main():
            _, writer = await asyncio.open_connection(*await _listen(loop, log))
            for i in range(64):
                writer.write(bytes([i]))
            await asyncio.sleep(1)
            writer.close()

        run(loop, main())
        assert len(log) + loop.dropped_messages == loop.metrics.messages == 64
        return [data for _, data in log]

    assert dropped(3) == dropped(3)
    assert dropped(3) != dropped(4)
    assert 0 < len(dropped(3)) < 64


def test_nothing_listening_refuses_the_connection():
    loop = VirtualClockLoop()
    with pytest.raises(ConnectionRefusedError):
        run(loop, asyncio.open_connection("10.0.0.9", 1))


def test_invalid_loss_probability_rejected():
    with pytest.raises(ValueError):
        VirtualClockLoop(loss_probability=1.0)
