"""Asynchronous triple factory: producer threads streaming into one bounded queue.

The factory runs :class:`~repro.mpc.offline.generator.DealerlessTripleGenerator`
producers *ahead of and concurrently with* the online phase.  The
:class:`TripleQueue` is the only queue: it holds both the announced work
(block-sized chunks) and the finished blocks, and every producer claims,
generates and puts on its own:

::

    start / add_quota                                          online engine
    (divmod chunks) ─> TripleQueue.claim() ─> producer k ─┐
                       ┌───────────────────────────────────┘
                       └─> TripleQueue.put_block() ─> take() ─> FactoryTripleSource
                           (bounded, watermark)                 .deal_batch()

Backpressure is end-to-end: when the online side consumes slowly the
queue fills and enters *draining* state, and each producer parks in
``put_block`` holding the one block it just generated -- no unbounded
memory growth.  Refill is watermark-driven: once the online side draws
the queue down to ``low_watermark`` words, puts unblock and producers
sprint again (hysteresis, not per-word thrash).  The bound is
``max(capacity_words, largest single take)`` words buffered plus at most
one block per producer parked in ``put_block``: the batch engine asks for
a whole fleet layer at once -- ``ANDs in the layer * ceil(n / 64)``
words, which can exceed the capacity -- and a starved ``take`` holds puts
open until its request is covered, so the queue then fills to that
request and no further.

Producers are **threads**: with the wire model on (the default), they spend
most of their wall time sleeping out simulated link transfers, releasing the
GIL -- which is exactly the time the online engine's CPU work fills.  Blocks
and their :class:`~repro.mpc.offline.phases.PhaseStats` flow by reference,
with no serialization cost.

Failure is never a hang: a producer that raises, or whose loop returns
before :meth:`TripleFactory.close`, fails the queue itself, and every
blocked or future ``take`` raises :class:`OfflineProducerError` naming it.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque

import numpy as np

from repro.core.errors import ReproError
from repro.mpc.triples import mask_dead_lanes

from .generator import (
    DEFAULT_OFFLINE_BANDWIDTH_BPS,
    DEFAULT_OFFLINE_LATENCY_S,
    DealerlessTripleGenerator,
)
from .phases import PhaseStats

__all__ = [
    "OfflineError",
    "OfflineExhausted",
    "QueueClosed",
    "OfflineProducerError",
    "TripleQueue",
    "TripleFactory",
    "FactoryTripleSource",
]

# Default sizing: blocks big enough to amortize per-block overhead but
# small enough that the consumer never waits long on a block boundary
# (~8 ms of wire per block at the default profile), a queue deep enough
# to ride out online bursts, refill once 1/4 full.
DEFAULT_BLOCK_WORDS = 96
DEFAULT_CAPACITY_WORDS = 2048

# How long a consumer waits on an empty queue before concluding the
# pipeline wedged (generous: producing one block takes ~10 ms).
TAKE_TIMEOUT_S = 60.0


# The online engine's numpy kernels are GIL-holding and only yield at the
# interpreter's switch interval (5 ms default) -- at that granularity a
# producer thread waits ~5 ms just to *begin* each simulated wire sleep,
# serializing the pipeline.  The interval is process-wide, so it is held
# tight for as long as *any* factory is live: the first start saves the
# caller's value, the last close restores it.
PRODUCER_SWITCH_INTERVAL_S = 0.001
_switch_lock = threading.Lock()
_live_thread_factories = 0
_saved_switch_interval = 0.0


def _acquire_switch_interval() -> None:
    global _live_thread_factories, _saved_switch_interval
    with _switch_lock:
        if _live_thread_factories == 0:
            _saved_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(PRODUCER_SWITCH_INTERVAL_S)
        _live_thread_factories += 1


def _release_switch_interval() -> None:
    global _live_thread_factories
    with _switch_lock:
        _live_thread_factories -= 1
        if _live_thread_factories == 0:
            sys.setswitchinterval(_saved_switch_interval)


class OfflineError(ReproError):
    """Base class for offline-subsystem failures."""


class OfflineExhausted(OfflineError):
    """A triple source ran out of preprocessed material."""


class QueueClosed(OfflineError):
    """The factory was closed while triples were still being awaited."""


class OfflineProducerError(OfflineError):
    """A producer died (raised, or its loop returned) before finishing its quota."""


class TripleQueue:
    """Bounded buffer of bitsliced triple words with watermark hysteresis.

    Producers :meth:`claim` announced chunks and append whole blocks via
    :meth:`put_block`; the consumer draws arbitrary word counts via
    :meth:`take`.  When depth reaches ``capacity_words`` the queue enters
    draining state and puts block until depth falls to ``low_watermark``
    (or a consumer is starved, which force-reopens puts so a take larger
    than the remaining depth -- or than ``capacity_words`` itself -- can
    never deadlock against the watermark; depth then peaks at the size of
    that take).

    Until :meth:`add_chunks` announces production the queue is open-ended
    and takes wait for puts; afterwards, once every announced word is put,
    a take past the depth raises :class:`OfflineExhausted`.
    """

    def __init__(self, capacity_words: int):
        if capacity_words < 1:
            raise ValueError(f"capacity_words must be positive, got {capacity_words}")
        self.capacity_words = capacity_words
        self.low_watermark = max(1, capacity_words // 4)
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        # Each entry: [a, b, c] arrays of shape (words, parties); the head
        # entry may be partially consumed, tracked by ``_head_offset``.
        self._blocks: deque[list[np.ndarray]] = deque()
        self._head_offset = 0
        self._depth = 0
        self._draining = False
        self._closed = False
        self._failure: BaseException | None = None
        self._chunks: deque[int] = deque()  # announced, not yet claimed
        self._due: int | None = None  # words announced in total
        self.finished_at: float | None = None  # when the last due word arrived
        self.words_put = 0
        self.words_taken = 0
        self.refill_cycles = 0

    @property
    def depth_words(self) -> int:
        with self._lock:
            return self._depth

    def _raise_if_stopped(self, closed_message: str) -> None:
        if self._failure is not None:
            raise OfflineProducerError(str(self._failure)) from self._failure
        if self._closed:
            raise QueueClosed(closed_message)

    def _stamp_finished(self) -> None:
        """Set or clear ``finished_at`` against the announced total (lock held)."""
        if self._due is None or self.words_put < self._due:
            self.finished_at = None
        elif self.finished_at is None:
            self.finished_at = time.perf_counter()

    def add_chunks(self, chunks: list[int]) -> None:
        """Announce more production, as chunks for producers to claim."""
        with self._state_changed:
            self._chunks.extend(chunks)
            self._due = (self._due or 0) + sum(chunks)
            self._stamp_finished()
            self._state_changed.notify_all()

    def claim(self) -> int:
        """Pop the next announced chunk's word count, waiting for one."""
        with self._state_changed:
            while True:
                self._raise_if_stopped("queue closed while producing")
                if self._chunks:
                    return self._chunks.popleft()
                self._state_changed.wait()

    def put_block(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray, on_put=None
    ) -> None:
        """Append a block of full 64-lane words; blocks while draining.

        ``on_put`` runs in the critical section that counts the block into
        ``words_put``, so accounting hung on it never prices a block that
        is still parked here (or is dropped by a close).
        """
        n = int(a.shape[0])
        with self._state_changed:
            while self._draining and not (self._closed or self._failure):
                self._state_changed.wait()
            self._raise_if_stopped("queue closed while producing")
            self._blocks.append([a, b, c])
            self._depth += n
            self.words_put += n
            if on_put is not None:
                on_put()
            self._stamp_finished()
            if self._depth >= self.capacity_words:
                self._draining = True
            self._state_changed.notify_all()

    def take(
        self, count: int, timeout: float = TAKE_TIMEOUT_S
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return ``count`` words, blocking until available."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        deadline = time.monotonic() + timeout
        with self._state_changed:
            while self._depth < count:
                self._raise_if_stopped("queue closed while awaiting triples")
                if self.finished_at is not None:
                    raise OfflineExhausted(
                        f"factory produced all its triples but {count} more words "
                        f"were requested (depth={self._depth}); raise target_words"
                    )
                if self._draining:
                    # A starved consumer overrides the watermark: reopen puts
                    # immediately so large takes can't deadlock.
                    self._draining = False
                    self.refill_cycles += 1
                    self._state_changed.notify_all()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise OfflineError(
                        f"timed out after {timeout:.0f}s waiting for {count} triple "
                        f"words (depth={self._depth}) -- pipeline wedged?"
                    )
                self._state_changed.wait(timeout=remaining)
            parts: list[list[np.ndarray]] = []
            need = count
            while need > 0:
                head = self._blocks[0]
                avail = int(head[0].shape[0]) - self._head_offset
                grab = min(avail, need)
                lo = self._head_offset
                parts.append([arr[lo : lo + grab] for arr in head])
                need -= grab
                if grab == avail:
                    self._blocks.popleft()
                    self._head_offset = 0
                else:
                    self._head_offset += grab
            self._depth -= count
            self.words_taken += count
            if self._draining and self._depth <= self.low_watermark:
                self._draining = False
                self.refill_cycles += 1
                self._state_changed.notify_all()
        if len(parts) == 1:
            a, b, c = parts[0]
            return a, b, c
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )

    def wait_finished(self, timeout: float | None = None) -> bool:
        """Wait until every announced word is put; False on timeout."""
        with self._state_changed:
            self._state_changed.wait_for(
                lambda: self.finished_at is not None
                or self._failure is not None
                or self._closed,
                timeout,
            )
            if self.finished_at is not None:
                return True
            self._raise_if_stopped("queue closed before production finished")
            return False

    def fail(self, exc: BaseException) -> None:
        """Poison the queue: wake everyone with ``OfflineProducerError``."""
        with self._state_changed:
            if self._failure is None:
                self._failure = exc
            self._state_changed.notify_all()

    def close(self) -> None:
        with self._state_changed:
            self._closed = True
            self._state_changed.notify_all()


class TripleFactory:
    """Runs dealerless producers ahead of the online phase.

    ``target_words`` is the total preprocessing quota.  :meth:`start`
    announces it to the :class:`TripleQueue` as block-sized chunks and
    launches ``producers`` *persistent* threads, each of which claims the
    next chunk, generates it and puts the block itself; the online engine
    then consumes via :meth:`source`.  Because workers are persistent, a
    mid-run :meth:`add_quota` is just more chunks to claim -- no start cost
    on the protocol's critical path.  Use as a context manager, or call
    :meth:`close` explicitly -- close is idempotent and also runs on
    failure paths.

    Producers are wire-wait dominated threads (see module docstring), so
    they overlap cleanly with online CPU and hand blocks over by reference.
    They simulate the offline wire (see
    :data:`~repro.mpc.offline.generator.DEFAULT_OFFLINE_BANDWIDTH_BPS`),
    splitting the provisioned link bandwidth between them; pass
    ``link_bandwidth_bps=None`` for compute-only production in tests.
    """

    def __init__(
        self,
        parties: int,
        seed: int,
        target_words: int,
        producers: int = 2,
        block_words: int = DEFAULT_BLOCK_WORDS,
        capacity_words: int = DEFAULT_CAPACITY_WORDS,
        link_bandwidth_bps: float | None = DEFAULT_OFFLINE_BANDWIDTH_BPS,
        link_latency_s: float = DEFAULT_OFFLINE_LATENCY_S,
    ):
        if target_words < 0:
            raise ValueError(f"target_words must be non-negative, got {target_words}")
        if producers < 1:
            raise ValueError(f"need at least one producer, got {producers}")
        if block_words < 1:
            raise ValueError(f"block_words must be positive, got {block_words}")
        self.parties = parties
        self.seed = seed
        self.target_words = target_words
        self.producers = producers
        self.block_words = block_words
        # Producers share the provisioned offline link: each gets an even
        # bandwidth slice, so aggregate wire time is bandwidth-conserving.
        self.link_bandwidth_bps = (
            None if link_bandwidth_bps is None else link_bandwidth_bps / producers
        )
        self.link_latency_s = link_latency_s
        self.queue = TripleQueue(capacity_words)
        self.setup_stats = PhaseStats()
        self.offline_stats = PhaseStats()  # written under the queue's lock
        self._setup_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        # Set on close: producers abandon in-flight wire waits.
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        self.started_at: float | None = None

    # ------------------------------------------------------------------
    def start(self) -> "TripleFactory":
        if self._started:
            raise OfflineError("factory already started")
        self._started = True
        self.started_at = time.perf_counter()
        _acquire_switch_interval()
        try:
            self._dispatch(self.target_words)
            for k in range(self.producers):
                worker = threading.Thread(
                    target=self._run_producer,
                    args=(k,),
                    name=f"triple-producer-{k}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        except BaseException:
            # Release what start() took: the producers and the switch
            # interval.
            self.close()
            raise
        return self

    def add_quota(self, words: int) -> None:
        """Announce ``words`` of additional production to the live workers.

        Used when the triple demand is only known mid-protocol (the
        β-selection circuit's exact size needs λ, which the count phase
        reveals): the factory tops up without tearing anything down or
        spawning anything new, and consumers blocked on the queue simply
        keep waiting for the extra chunks.
        """
        if not self._started:
            raise OfflineError("factory not started; call start() first")
        if self._closed:
            raise OfflineError("factory already closed")
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        if words == 0:
            return
        self.target_words += words
        self._dispatch(words)

    def _dispatch(self, words: int) -> None:
        """Announce ``words`` as block-sized chunks.

        Block granularity keeps the pool load-balanced: whichever worker
        frees up first claims the next chunk.
        """
        full, rem = divmod(words, self.block_words)
        self.queue.add_chunks([self.block_words] * full + ([rem] if rem else []))

    def source(self) -> "FactoryTripleSource":
        if not self._started:
            raise OfflineError("factory not started; call start() first")
        return FactoryTripleSource(self)

    def join_producers(self, timeout: float | None = None) -> None:
        """Block until the full quota is enqueued (the *sequential* shape).

        Requires ``capacity_words >= target_words``, otherwise backpressure
        would park producers forever with nobody consuming.
        """
        if self.queue.capacity_words < self.target_words:
            raise OfflineError(
                "join_producers needs capacity_words >= target_words "
                f"({self.queue.capacity_words} < {self.target_words})"
            )
        if not self.queue.wait_finished(timeout):
            raise OfflineError("timed out waiting for producers to finish")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        # Wakes producers parked in claim() or put_block() with QueueClosed.
        self.queue.close()
        for w in self._workers:
            w.join(timeout=2.0)
        if self._started:
            _release_switch_interval()

    def __enter__(self) -> "TripleFactory":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def words_produced(self) -> int:
        return self.queue.words_put

    @property
    def finished_at(self) -> float | None:
        """When the last block of the current quota was enqueued."""
        return self.queue.finished_at

    @property
    def production_span_s(self) -> float:
        """Wall-clock from start to last block enqueued (0 while running)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def _producer_seed(self, k: int) -> int:
        # Distinct deterministic streams per producer.
        return (self.seed * 0x9E3779B97F4A7C15 + k + 1) & 0xFFFFFFFFFFFFFFFF

    def _run_producer(self, k: int) -> None:
        """Producer thread: any exit but close() fails the queue, naming ``k``."""
        try:
            self._produce(k)
        except QueueClosed:
            return
        except Exception as exc:  # noqa: BLE001 - surfaced through the queue
            error = OfflineProducerError(f"producer {k} failed: {type(exc).__name__}: {exc}")
            error.__cause__ = exc  # keeps the producer's traceback reachable
            self.queue.fail(error)
        else:
            self.queue.fail(
                OfflineProducerError(f"producer {k} died before finishing its quota")
            )

    def _produce(self, k: int) -> None:
        """Set up, then claim, generate and put blocks until the queue closes."""
        gen = DealerlessTripleGenerator(
            self.parties,
            self._producer_seed(k),
            link_bandwidth_bps=self.link_bandwidth_bps,
            link_latency_s=self.link_latency_s,
            interrupt=self._stop,
        )
        t0 = time.perf_counter()
        setup = gen.setup()
        setup.wall_time_s = time.perf_counter() - t0
        with self._setup_lock:
            self.setup_stats.add(setup)
        rounds = 0
        while True:
            words = self.queue.claim()
            t0 = time.perf_counter()
            blk = gen.generate(words)
            blk.stats.wall_time_s = time.perf_counter() - t0
            rounds += blk.stats.rounds
            self.queue.put_block(
                blk.a, blk.b, blk.c,
                on_put=lambda: self._count_block(blk.stats, rounds),
            )

    def _count_block(self, stats: PhaseStats, producer_rounds: int) -> None:
        """Price a delivered block (runs inside ``put_block``'s critical section)."""
        # Parallel producers: the phase's rounds are the slowest producer's
        # sequential rounds, not the sum over every block.
        rounds = max(self.offline_stats.rounds, producer_rounds)
        self.offline_stats.add(stats)
        self.offline_stats.rounds = rounds


class FactoryTripleSource:
    """Dealer-compatible source streaming from a running factory.

    Serves words from 64-lane blocks.  When an engine asks for fewer lanes
    (the tail chunk of a batch run), a full word is consumed and the dead
    lanes are masked off -- the gap shows up as ``utilization < 1`` in the
    phase report rather than as silently recycled randomness, matching how
    a real deployment burns preprocessed material.
    """

    def __init__(self, factory: TripleFactory):
        self.parties = factory.parties
        self.factory = factory
        self.issued = 0
        self.words_consumed = 0
        self.stall_time_s = 0.0

    def deal_batch(
        self, count: int, lanes: int = 64
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if not 1 <= lanes <= 64:
            raise ValueError(f"lanes must be in [1, 64], got {lanes}")
        if count == 0:
            empty = np.zeros((0, self.parties), dtype=np.uint64)
            return empty, empty.copy(), empty.copy()
        t0 = time.perf_counter()
        arrays = self.factory.queue.take(count)
        self.stall_time_s += time.perf_counter() - t0
        self.words_consumed += count
        self.issued += count * lanes
        return mask_dead_lanes(arrays, lanes)
