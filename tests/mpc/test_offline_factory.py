"""Tests for the asynchronous triple factory and its bounded queue."""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.mpc.circuits import CircuitBuilder
from repro.mpc.gmw import BatchGMWEngine
from repro.mpc.offline import factory as factory_module
from repro.mpc.offline.factory import (
    FactoryTripleSource,
    OfflineExhausted,
    OfflineProducerError,
    QueueClosed,
    TripleFactory,
    TripleQueue,
)
from repro.mpc.offline.generator import DealerlessTripleGenerator


def _block(words, parties=3, fill=1):
    arr = np.full((words, parties), fill, dtype=np.uint64)
    return arr, arr.copy(), arr.copy()


def _fast_factory(**kwargs):
    """Factory with the wire model off: tests exercise logic, not timing."""
    kwargs.setdefault("parties", 3)
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("producers", 2)
    kwargs.setdefault("link_bandwidth_bps", None)
    return TripleFactory(**kwargs)


class TestTripleQueue:
    def test_put_take_roundtrip(self):
        q = TripleQueue(capacity_words=64)
        q.put_block(*_block(8))
        a, b, c = q.take(8)
        assert a.shape == (8, 3)
        assert q.words_taken == 8

    def test_take_spans_blocks(self):
        q = TripleQueue(capacity_words=64)
        q.put_block(*_block(4, fill=1))
        q.put_block(*_block(4, fill=2))
        a, _, _ = q.take(6)
        assert list(a[:, 0]) == [1, 1, 1, 1, 2, 2]
        # The second block's tail is still there.
        a2, _, _ = q.take(2)
        assert list(a2[:, 0]) == [2, 2]

    def test_partial_head_tracked(self):
        q = TripleQueue(capacity_words=64)
        q.put_block(*_block(8))
        q.take(3)
        q.take(5)
        assert q.depth_words == 0

    def test_watermark_hysteresis(self):
        q = TripleQueue(capacity_words=8)  # low watermark 8 // 4 = 2
        q.put_block(*_block(8))  # exactly at capacity -> draining
        assert q._draining
        q.take(5)  # depth 3 > watermark: still draining
        assert q._draining
        q.take(1)  # depth 2 == watermark: reopened
        assert not q._draining
        assert q.refill_cycles == 1

    def test_starved_take_overrides_watermark(self):
        q = TripleQueue(capacity_words=8)
        q.put_block(*_block(8))
        assert q._draining
        # More than the remaining depth: the take must reopen puts rather
        # than wait for a drain that can never come.
        import threading

        def feed():
            time.sleep(0.05)
            q.put_block(*_block(4))

        t = threading.Thread(target=feed)
        t.start()
        a, _, _ = q.take(12, timeout=5)
        t.join()
        assert a.shape[0] == 12

    def test_take_after_finish_raises_exhausted(self):
        q = TripleQueue(capacity_words=64)
        q.add_chunks([4])
        q.put_block(*_block(4))  # every announced word is in: finished
        q.take(4)  # the buffered words still serve
        with pytest.raises(OfflineExhausted):
            q.take(1)

    def test_more_chunks_rearm(self):
        q = TripleQueue(capacity_words=64)
        q.add_chunks([])  # nothing announced: finished at once
        assert q.finished_at is not None
        q.add_chunks([2])
        assert q.finished_at is None
        q.put_block(*_block(2))
        a, _, _ = q.take(2)
        assert a.shape[0] == 2

    def test_claim_pops_announced_chunks_then_waits(self):
        q = TripleQueue(capacity_words=64)
        q.add_chunks([4, 1])
        assert [q.claim(), q.claim()] == [4, 1]
        threading.Timer(0.05, q.add_chunks, args=([3],)).start()
        assert q.claim() == 3

    def test_close_wakes_claimer(self):
        q = TripleQueue(capacity_words=64)
        threading.Timer(0.05, q.close).start()
        with pytest.raises(QueueClosed):
            q.claim()

    def test_close_wakes_taker(self):
        q = TripleQueue(capacity_words=64)
        import threading

        threading.Timer(0.05, q.close).start()
        with pytest.raises(QueueClosed):
            q.take(1, timeout=5)

    def test_fail_poisons_queue(self):
        q = TripleQueue(capacity_words=64)
        q.fail(RuntimeError("boom"))
        with pytest.raises(OfflineProducerError):
            q.take(1)
        with pytest.raises(OfflineProducerError):
            q.put_block(*_block(1))

    def test_take_timeout(self):
        q = TripleQueue(capacity_words=64)
        with pytest.raises(Exception, match="timed out"):
            q.take(1, timeout=0.05)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            TripleQueue(capacity_words=0)


class TestTripleFactoryThreads:
    def test_produces_valid_triples(self):
        with _fast_factory(target_words=96, block_words=32) as f:
            a, b, c = f.source().deal_batch(96)
        ra = np.bitwise_xor.reduce(a, axis=1)
        rb = np.bitwise_xor.reduce(b, axis=1)
        rc = np.bitwise_xor.reduce(c, axis=1)
        assert np.array_equal(rc, ra & rb)

    def test_join_producers_prefills(self):
        f = _fast_factory(target_words=64, capacity_words=64).start()
        try:
            f.join_producers(timeout=30)
            assert f.words_produced == 64
            assert f.production_span_s > 0
        finally:
            f.close()

    def test_join_requires_capacity(self):
        f = _fast_factory(target_words=128, capacity_words=64).start()
        try:
            with pytest.raises(Exception, match="capacity_words"):
                f.join_producers()
        finally:
            f.close()

    def test_exhaustion_past_quota(self):
        with _fast_factory(target_words=32) as f:
            src = f.source()
            src.deal_batch(32)
            with pytest.raises(OfflineExhausted):
                src.deal_batch(1)

    def test_add_quota_on_live_workers(self):
        with _fast_factory(target_words=32) as f:
            src = f.source()
            src.deal_batch(32)
            f.add_quota(32)
            a, _, _ = src.deal_batch(32)
            assert a.shape[0] == 32

    def test_add_quota_before_any_take(self):
        with _fast_factory(target_words=0) as f:
            f.add_quota(16)
            a, _, _ = f.source().deal_batch(16)
            assert a.shape[0] == 16

    def test_zero_quota_finishes_immediately(self):
        with _fast_factory(target_words=0) as f:
            f.join_producers(timeout=10)
            with pytest.raises(OfflineExhausted):
                f.source().deal_batch(1)

    def test_setup_and_offline_stats_populate(self):
        with _fast_factory(target_words=64, producers=2) as f:
            f.join_producers(timeout=30)
            assert f.setup_stats.bits_sent > 0
            assert f.offline_stats.bits_sent > 0
            # Parallel producers: rounds follow the slowest producer, so
            # strictly less than the sum over all blocks.
            total_block_rounds = 2 * len(
                range(0, 64, f.block_words)
            ) * f.producers
            assert 0 < f.offline_stats.rounds < total_block_rounds

    def test_offline_stats_price_only_delivered_words(self):
        """A block parked in ``put_block`` (queue full) is not yet produced:
        the offline stats price exactly the words that reached the queue,
        before and after close drops the parked block."""
        one_block = DealerlessTripleGenerator(3, seed=1).generate(16).stats.bits_sent
        f = TripleFactory(
            parties=3,
            seed=1,
            target_words=64,
            producers=1,
            block_words=16,
            capacity_words=16,
            link_bandwidth_bps=None,
        ).start()
        try:
            time.sleep(0.3)  # the second block is generated and parked by now
            assert f.words_produced == 16
            assert f.offline_stats.bits_sent == one_block
        finally:
            f.close()
        assert f.words_produced == 16
        assert f.offline_stats.bits_sent == one_block

    def test_live_factory_runs_one_thread_per_producer(self):
        before = set(threading.enumerate())
        with _fast_factory(target_words=8, producers=3):
            started = set(threading.enumerate()) - before
            assert sorted(t.name for t in started) == [
                f"triple-producer-{k}" for k in range(3)
            ]

    def test_many_producers_account_exactly(self):
        """More producers than cores on a tiny queue and switch interval:
        a lost update in claiming, putting or pricing would break the exact
        word, bit and message totals."""
        target, block = 1000, 7
        full, rem = divmod(target, block)
        probe = DealerlessTripleGenerator(3, seed=1)
        setup_bits = probe.setup().bits_sent
        block_stats = [probe.generate(n).stats for n in [block] * full + [rem]]
        before = sys.getswitchinterval()
        f = _fast_factory(
            target_words=target, producers=8, block_words=block, capacity_words=16
        ).start()
        try:
            sys.setswitchinterval(1e-5)
            src, taken = f.source(), 0
            sizes = np.random.default_rng(5).integers(1, 40, size=target)
            for size in sizes:
                size = min(int(size), target - taken)
                if size == 0:
                    break
                src.deal_batch(size)
                taken += size
        finally:
            f.close()
            sys.setswitchinterval(before)
        assert f.words_produced == f.queue.words_taken == target
        assert f.offline_stats.bits_sent == sum(s.bits_sent for s in block_stats)
        assert f.offline_stats.messages == sum(s.messages for s in block_stats)
        assert f.setup_stats.bits_sent == 8 * setup_bits
        assert all(not w.is_alive() for w in f._workers)

    def test_close_is_fast_and_idempotent(self):
        f = TripleFactory(parties=3, seed=1, target_words=1 << 16, producers=2).start()
        time.sleep(0.05)  # mid-production, wire waits in flight
        start = time.perf_counter()
        f.close()
        assert time.perf_counter() - start < 1.0
        f.close()

    def test_deterministic_across_factories(self):
        with _fast_factory(target_words=64, producers=1) as f1:
            a1, b1, c1 = f1.source().deal_batch(64)
        with _fast_factory(target_words=64, producers=1) as f2:
            a2, b2, c2 = f2.source().deal_batch(64)
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)

    def test_source_requires_started_factory(self):
        f = _fast_factory(target_words=8)
        with pytest.raises(Exception, match="not started"):
            f.source()
        f.start()
        f.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            _fast_factory(target_words=-1)
        with pytest.raises(ValueError):
            _fast_factory(target_words=8, producers=0)
        with pytest.raises(ValueError):
            _fast_factory(target_words=8, block_words=0)


class TestProducerFailure:
    def test_raising_producer_surfaces_its_message(self, monkeypatch):
        """A producer that raises mid-quota poisons the queue: the consumer
        gets ``OfflineProducerError`` carrying the producer's message."""
        real_generate = factory_module.DealerlessTripleGenerator.generate
        calls = []

        def generate(self, words, *args, **kwargs):
            calls.append(words)
            if len(calls) > 1:
                raise RuntimeError("boom")
            return real_generate(self, words, *args, **kwargs)

        monkeypatch.setattr(
            factory_module.DealerlessTripleGenerator, "generate", generate
        )
        with _fast_factory(target_words=64, block_words=16, producers=1) as f:
            src = f.source()
            with pytest.raises(OfflineProducerError, match="RuntimeError: boom"):
                src.deal_batch(64)
            assert src.words_consumed == 0
        assert len(calls) == 2

    def test_failure_chains_the_producer_exception(self, monkeypatch):
        def generate(self, words, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            factory_module.DealerlessTripleGenerator, "generate", generate
        )
        with _fast_factory(target_words=16, producers=1) as f:
            with pytest.raises(OfflineProducerError) as info:
                f.source().deal_batch(16)
        raised_in_producer = info.value.__cause__.__cause__
        assert isinstance(raised_in_producer, RuntimeError)
        assert raised_in_producer.__traceback__ is not None

    def test_failed_setup_names_the_producer(self, monkeypatch):
        def setup(self):
            raise RuntimeError("no base OTs")

        monkeypatch.setattr(factory_module.DealerlessTripleGenerator, "setup", setup)
        with _fast_factory(target_words=16, producers=1) as f:
            with pytest.raises(
                OfflineProducerError, match="producer 0 failed: RuntimeError: no base OTs"
            ):
                f.source().deal_batch(16)

    def test_join_producers_raises_the_failure(self, monkeypatch):
        def generate(self, words, *args, **kwargs):
            raise RuntimeError("extension failed")

        monkeypatch.setattr(
            factory_module.DealerlessTripleGenerator, "generate", generate
        )
        with _fast_factory(target_words=16, capacity_words=16) as f:
            with pytest.raises(OfflineProducerError, match="extension failed"):
                f.join_producers(timeout=30)

    def test_producer_exiting_early_raises_not_hangs(self, monkeypatch):
        """A producer loop that returns with quota outstanding and no error
        fails the queue instead of wedging the consumer."""
        monkeypatch.setattr(TripleFactory, "_produce", lambda self, k: None)
        with _fast_factory(target_words=16) as f:
            start = time.perf_counter()
            with pytest.raises(OfflineProducerError, match="died before finishing"):
                f.source().deal_batch(16)
            assert time.perf_counter() - start < 10.0

    def test_close_reaps_every_thread(self):
        f = _fast_factory(target_words=1 << 12, capacity_words=64).start()
        f.source().deal_batch(8)
        f.close()
        assert all(not w.is_alive() for w in f._workers)
        assert len(f._workers) == f.producers


class TestSwitchInterval:
    """Live factories share one process-wide switch interval."""

    @pytest.mark.parametrize("close_order", [(0, 1), (1, 0)])
    def test_overlapping_factories_restore_once_last_closes(self, close_order):
        before = sys.getswitchinterval()
        factories = [_fast_factory(target_words=8), _fast_factory(target_words=8)]
        try:
            for factory in factories:
                factory.start()
                assert sys.getswitchinterval() == pytest.approx(0.001)
            factories[close_order[0]].close()
            # One is still producing: the interval must stay tight.
            assert sys.getswitchinterval() == pytest.approx(0.001)
            factories[close_order[1]].close()
            assert sys.getswitchinterval() == pytest.approx(before)
        finally:
            for factory in factories:
                factory.close()
            sys.setswitchinterval(before)

    def test_concurrent_start_close_never_loses_the_saved_value(self):
        """More lifecycles than cores racing on the module-level count: a
        lost update would leave the process at 1 ms (or restore early)."""
        before = sys.getswitchinterval()
        errors = []

        def lifecycle():
            try:
                for _ in range(3):
                    with _fast_factory(target_words=4, producers=1):
                        if sys.getswitchinterval() > 0.0011:
                            errors.append("restored while a factory was live")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=lifecycle) for _ in range(6)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert sys.getswitchinterval() == pytest.approx(before)
        finally:
            sys.setswitchinterval(before)

    def test_unstarted_factory_leaves_it_alone(self):
        before = sys.getswitchinterval()
        _fast_factory(target_words=8).close()
        assert sys.getswitchinterval() == pytest.approx(before)

    def test_zero_block_words_rejected_before_start(self):
        """``block_words=0`` used to pass the constructor and blow up in
        ``start()`` after the interval was tightened and the producers
        were polling: both leaked for the life of the process."""
        before = sys.getswitchinterval()
        threads = set(threading.enumerate())
        with pytest.raises(ValueError, match="block_words"):
            _fast_factory(target_words=8, block_words=0).start()
        assert sys.getswitchinterval() == pytest.approx(before)
        assert set(threading.enumerate()) <= threads

    def test_failed_start_releases_what_it_took(self, monkeypatch):
        before = sys.getswitchinterval()
        threads = set(threading.enumerate())

        def dispatch(self, words):
            raise RuntimeError("dispatch failed")

        monkeypatch.setattr(TripleFactory, "_dispatch", dispatch)
        f = _fast_factory(target_words=8)
        try:
            with pytest.raises(RuntimeError, match="dispatch failed"):
                f.start()
            assert sys.getswitchinterval() == pytest.approx(before)
            assert set(threading.enumerate()) <= threads
        finally:
            f.close()
            sys.setswitchinterval(before)


class TestFactoryTripleSource:
    def test_partial_lanes_consume_full_word(self):
        with _fast_factory(target_words=4) as f:
            src = f.source()
            a, _, _ = src.deal_batch(2, lanes=3)
            assert not np.any(a & np.uint64(~0b111 & 0xFFFFFFFFFFFFFFFF))
            assert src.words_consumed == 2
            assert src.issued == 6

    def test_stall_time_accumulates(self):
        with _fast_factory(target_words=32) as f:
            src = f.source()
            src.deal_batch(32)
            assert isinstance(src, FactoryTripleSource)
            assert src.stall_time_s >= 0.0

    def test_fleet_layer_larger_than_capacity_completes(self):
        """The batch engine takes a whole fleet layer at once: 8 ANDs over
        six full words is one 48-word take against a 16-word queue.  The
        starved take holds puts open, so the run completes, opens the same
        bytes as the dealer-fed run, and leaves no producer wedged."""
        b = CircuitBuilder()
        x, y = b.input_bits(8), b.input_bits(8)
        b.output_bits([b.and_(p, q) for p, q in zip(x, y)])
        circuit = b.build()
        n = 6 * 64 + 5
        words = 8 * 7
        inputs = np.random.default_rng(3).integers(0, 2, size=(n, 16), dtype=np.uint8)
        with _fast_factory(target_words=words, capacity_words=16, block_words=4) as f:
            src = f.source()
            fed = BatchGMWEngine(circuit, 3, random.Random(7), triple_source=src).run(inputs)
            assert f.finished_at is not None
            assert f.words_produced == words
        assert all(not w.is_alive() for w in f._workers)
        assert src.words_consumed == f.queue.words_taken == words
        assert src.issued == 8 * n
        dealer_fed = BatchGMWEngine(circuit, 3, random.Random(7)).run(inputs)
        assert fed.outputs.tobytes() == dealer_fed.outputs.tobytes()
        assert np.array_equal(fed.outputs, inputs[:, :8] & inputs[:, 8:])
