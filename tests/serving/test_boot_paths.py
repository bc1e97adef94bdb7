"""One index engine behind every way a serving process boots.

``eppi serve`` on a JSON index or a v1 / v2 / v3 / v4 snapshot, a
``FleetSupervisor`` worker and a ``ReplicaServer`` over an overlay chain
must all answer from the CSR engine (or an overlay over it), and their
``query`` / ``query-batch`` replies must be the very bytes a ``PPIServer`` over the equivalent ``PostingsIndex`` renders.
The reference holds one-byte ids, a v3 boot serves mapped ``int32`` ids
and a v4 boot mapped ``uint8`` ones: one reference for all three makes
the id width invisible on the wire.
"""

import asyncio
import contextlib
import os
import shutil
import socket
import subprocess
import sys

import pytest

from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex
from repro.replication import ReplicaApplier, ReplicaServer
from repro.serving import FleetSupervisor, PPIServer, sync_request
from repro.serving.fleet import _recv_exact
from repro.serving.protocol import VERB_INFO, VERB_QUERY, VERB_QUERY_BATCH
from repro.serving.protocol_v2 import encode_request_v2, read_frame_sync
from repro.serving.snapshot import snapshot_epoch
from repro.updates import DeltaLog, seal_segment

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_JSON = os.path.join(DATA_DIR, "golden_index_v1.json")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def golden_snapshot(version: int) -> str:
    return os.path.join(DATA_DIR, f"golden_index_v{version}.npz")


def golden_index() -> PPIIndex:
    with open(GOLDEN_JSON) as f:
        return PPIIndex.from_json(f.read())


def probes(n_owners: int) -> list:
    """One request message per query verb."""
    query = {"id": 7, "verb": VERB_QUERY, "owner": 3}
    batch = {"id": 8, "verb": VERB_QUERY_BATCH, "owners": list(range(n_owners))}
    return [query, batch]


def reply_bytes(addr, message: dict) -> bytes:
    """The raw reply frame a live server sends for one request."""
    received = []
    with socket.create_connection(addr, timeout=5.0) as sock:
        sock.sendall(encode_request_v2(message))

        def recv(n: int) -> bytes:
            received.append(_recv_exact(sock, n))
            return received[-1]

        read_frame_sync(recv)
    return b"".join(received)


def reference_bytes(postings: PostingsIndex, epoch: int, message: dict):
    """The same reply from an in-process server over ``postings``."""
    server = PPIServer(postings, epoch=epoch)

    async def body():
        response = await server._serve_one(dict(message))
        return b"".join(server._encode_reply(message["verb"], response))

    return asyncio.run(body())


@contextlib.asynccontextmanager
async def cli_serve(*source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *source, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        while line and "listening on" not in line:
            line = proc.stdout.readline()
        assert line, "eppi serve exited before listening"
        host, port = line.rsplit(" ", 1)[-1].strip().split(":")
        epoch = snapshot_epoch(source[1]) if source[0] == "--snapshot" else 0
        yield (host, int(port)), PostingsIndex.from_index(golden_index()), epoch
    finally:
        proc.kill()
        proc.communicate()


@contextlib.asynccontextmanager
async def fleet_worker():
    with FleetSupervisor(golden_snapshot(3), n_shards=1) as fleet:
        fleet.start(monitor=False)
        yield fleet.addresses[0], PostingsIndex.from_index(golden_index()), 7


@contextlib.asynccontextmanager
async def replica_overlay(tmp_path):
    """A follower whose local segment directory already holds one sealed
    segment: it mounts it as an overlay without ever dialing a leader."""
    base = str(tmp_path / "follower.npz")
    shutil.copyfile(golden_snapshot(3), base)
    segment_dir = tmp_path / "follower-segs"
    segment_dir.mkdir()
    index = golden_index()
    with DeltaLog.create(
        str(tmp_path / "delta.log"), index.n_providers, noise_key=b"\x07" * 16
    ) as log:
        log.upsert(3, [0, 2, 9], beta=0.5)
        log.upsert(11, [4], beta=0.25)
        seal_segment(log, str(segment_dir / "000001.seg.npz"), base_epoch=7)
    applier = ReplicaApplier(("127.0.0.1", 1), base, segment_dir=str(segment_dir))
    server = await ReplicaServer(applier).start()
    try:
        yield server.address, applier.serving_index().to_postings(), 7
    finally:
        await server.stop()
        await applier.close()


BOOT_PATHS = {
    "serve-json": lambda tmp: cli_serve("--index", GOLDEN_JSON),
    "serve-snapshot-v1": lambda tmp: cli_serve("--snapshot", golden_snapshot(1)),
    "serve-snapshot-v2": lambda tmp: cli_serve("--snapshot", golden_snapshot(2)),
    "serve-snapshot-v3": lambda tmp: cli_serve("--snapshot", golden_snapshot(3)),
    "serve-snapshot-v4": lambda tmp: cli_serve("--snapshot", golden_snapshot(4)),
    "fleet-worker": lambda tmp: fleet_worker(),
    "replica-overlay": replica_overlay,
}


@pytest.mark.parametrize("boot", sorted(BOOT_PATHS))
def test_every_boot_path_serves_the_csr_engine(boot, tmp_path):
    def probe(addr, reference, epoch):
        info = sync_request(addr, VERB_INFO, timeout_s=5.0)
        replies = [
            (
                reply_bytes(addr, message),
                reference_bytes(reference, epoch, message),
            )
            for message in probes(reference.n_owners)
        ]
        return info, replies

    async def main():
        async with BOOT_PATHS[boot](tmp_path) as (addr, reference, epoch):
            # Off the loop: the replica path's server lives on this one.
            return await asyncio.get_running_loop().run_in_executor(
                None, probe, addr, reference, epoch
            )

    info, replies = asyncio.run(main())
    expected_engine = "OverlayIndex" if boot == "replica-overlay" else "PostingsIndex"
    assert info["index_engine"] == expected_engine
    for served, reference in replies:
        assert served == reference
