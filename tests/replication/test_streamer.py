"""Segment-streamer tests: archive, manifest cursor, chunking, retention.

The streamer's contract is that a follower can always resume: segments
are archived before the leader's compactor can delete them, manifests
answer strict tails past a known cursor, and chunk reads are addressed by
``(name, offset)`` so a half-fetched segment picks up where it stopped.
"""

import asyncio
import os

import pytest

from repro.replication import SegmentStreamer, decode_chunk
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import RemoteError
from repro.updates import compact_snapshot

from tests.replication.conftest import seal


def make_streamer(world, **kwargs) -> SegmentStreamer:
    os.makedirs(world["segment_dir"], exist_ok=True)
    return SegmentStreamer(
        world["leader_snapshot"], world["segment_dir"], **kwargs
    )


def ask(streamer, verb, **fields):
    response = asyncio.run(
        streamer.handle(verb, {"id": 1, "verb": verb, **fields}, 1)
    )
    if response.get("ok") is False:
        raise RemoteError(
            response.get("code", "?"), response.get("error", ""), response
        )
    return response


class TestArchive:
    def test_refresh_archives_and_survives_compactor_deletion(self, world):
        seg = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 30, {1, 2}, 0.5)])
        streamer = make_streamer(world)
        assert streamer.refresh() == 1
        assert streamer.refresh() == 0  # already archived: idempotent
        os.unlink(seg)  # the leader's compactor consumed it
        manifest = streamer.manifest()
        assert [m["name"] for m in manifest] == ["000001.seg.npz"]
        response = ask(streamer, "repl-segment", name="000001.seg.npz", offset=0)
        assert response["eof"] is True
        assert len(decode_chunk(response["data"])) == manifest[0]["size"]

    def test_recover_rebuilds_manifest_and_drops_torn_files(self, world):
        seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 30, {1}, 0.5)])
        streamer = make_streamer(world)
        streamer.refresh()
        torn = os.path.join(streamer.archive_dir, "000000.seg.npz")
        with open(torn, "wb") as f:
            f.write(b"not a segment")
        stray = os.path.join(streamer.archive_dir, "junk.part")
        with open(stray, "wb") as f:
            f.write(b"half a copy")
        reborn = make_streamer(world)  # same dirs, fresh process
        assert [m["name"] for m in reborn.manifest()] == ["000001.seg.npz"]
        assert not os.path.exists(torn)
        assert not os.path.exists(stray)

    def test_retention_trims_old_epochs(self, world):
        seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 30, {1}, 0.5)])
        streamer = make_streamer(world, retain_epochs=1)
        streamer.refresh()
        assert len(streamer.manifest()) == 1
        # Advance the leader two epochs: epoch-0 segments fall out.
        seg2 = seal(world["tmp"], "000002.seg.npz", 0, [("upsert", 31, {2}, 0.5)])
        compact_snapshot(world["leader_snapshot"], [seg2])  # -> epoch 1
        seg3 = seal(world["tmp"], "000003.seg.npz", 1, [("upsert", 32, {3}, 0.5)])
        compact_snapshot(world["leader_snapshot"], [seg3])  # -> epoch 2
        streamer.refresh()
        names = [m["name"] for m in streamer.manifest()]
        assert "000001.seg.npz" not in names
        assert "000003.seg.npz" in names


class TestManifest:
    def test_cursor_answers_the_strict_tail(self, world):
        for k in (1, 2, 3):
            seal(world["tmp"], f"00000{k}.seg.npz", 0, [("upsert", 29 + k, {k}, 0.5)])
        streamer = make_streamer(world)
        streamer.refresh()
        response = ask(streamer, "repl-subscribe", after="000002.seg.npz")
        assert [m["name"] for m in response["segments"]] == ["000003.seg.npz"]
        assert response["epoch"] == 0
        assert response["chunk_bytes"] == streamer.chunk_bytes

    def test_unknown_cursor_answers_everything(self, world):
        seal(world["tmp"], "000005.seg.npz", 0, [("upsert", 30, {1}, 0.5)])
        streamer = make_streamer(world)
        streamer.refresh()
        response = ask(streamer, "repl-subscribe", after="000000.seg.npz")
        assert [m["name"] for m in response["segments"]] == ["000005.seg.npz"]

    def test_bad_after_is_rejected(self, world):
        # ValueError here; the connection layer maps it to a
        # ``bad-request`` error response on the wire.
        streamer = make_streamer(world)
        with pytest.raises(ValueError):
            ask(streamer, "repl-epoch", after=7)


class TestChunks:
    def test_chunked_reads_reassemble_exactly(self, world):
        seg = seal(
            world["tmp"], "000001.seg.npz", 0,
            [("upsert", 30 + k, {k % 8}, 0.5) for k in range(12)],
        )
        with open(seg, "rb") as f:
            expected = f.read()
        streamer = make_streamer(world, chunk_bytes=128)
        streamer.refresh()
        got, offset = b"", 0
        while True:
            response = ask(
                streamer, "repl-segment", name="000001.seg.npz", offset=offset
            )
            chunk = decode_chunk(response["data"])
            assert len(chunk) <= 128
            got += chunk
            offset += len(chunk)
            if response["eof"]:
                break
        assert got == expected
        assert offset == response["size"]

    def test_unknown_segment_is_not_found(self, world):
        streamer = make_streamer(world)
        with pytest.raises(RemoteError) as excinfo:
            ask(streamer, "repl-segment", name="nope.seg.npz", offset=0)
        assert excinfo.value.code == "not-found"

    def test_path_traversal_and_bad_offsets_rejected(self, world):
        seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 30, {1}, 0.5)])
        streamer = make_streamer(world)
        streamer.refresh()
        with pytest.raises(ValueError):
            ask(streamer, "repl-segment", name="../000001.seg.npz", offset=0)
        with pytest.raises(ValueError):
            ask(streamer, "repl-segment", name="000001.seg.npz", offset=-1)
        with pytest.raises(ValueError):
            ask(streamer, "repl-segment", name="000001.seg.npz", offset=10**9)


class TestOverTheWire:
    def test_subscribe_and_fetch_over_tcp(self, world):
        """The repl verbs ride the wire protocol's JSON extension escape,
        end to end over real sockets."""
        seg = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 30, {1}, 0.5)])
        with open(seg, "rb") as f:
            expected = f.read()

        async def _main():
            streamer = make_streamer(world, chunk_bytes=256)
            await streamer.start()
            client = LocatorClient(
                servers=[streamer.address],
                retry=RetryPolicy(max_retries=1, timeout_s=2.0),
                cache_size=0,
            )
            try:
                sub = await client.call(
                    streamer.address, "repl-subscribe", after=None
                )
                assert sub["epoch"] == 0
                (entry,) = sub["segments"]
                got, offset = b"", 0
                while offset < entry["size"]:
                    r = await client.call(
                        streamer.address, "repl-segment",
                        name=entry["name"], offset=offset,
                    )
                    chunk = decode_chunk(r["data"])
                    got += chunk
                    offset += len(chunk)
                    if r["eof"]:
                        break
                assert got == expected
            finally:
                await client.close()
                await streamer.stop()

        asyncio.run(_main())
