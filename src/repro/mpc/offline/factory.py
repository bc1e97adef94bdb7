"""Asynchronous triple factory: bounded queue + ahead-running producers.

The factory runs :class:`~repro.mpc.offline.generator.DealerlessTripleGenerator`
producers *ahead of and concurrently with* the online phase, streaming
bitsliced triple blocks into a bounded :class:`TripleQueue`:

::

              ┌─> producer 0 ──┐ (persistent                  online engine
    work queue┤                │  processes)
    (chunked  ├─> producer 1 ──┤ mp.Queue ─> feeder ─> TripleQueue ─> FactoryTripleSource
     quotas)  └─>    ...     ──┘ (bounded)   (thread)  (bounded,       .deal_batch()
                                                        watermark)

Backpressure is end-to-end: when the online side consumes slowly the
``TripleQueue`` fills and enters *draining* state, the feeder stops moving
blocks, the bounded ``mp.Queue`` fills, and producers block on ``put`` --
no unbounded memory growth.  Refill is watermark-driven: once the online
side draws the queue down to ``low_watermark`` words, puts unblock and
producers sprint again (hysteresis, not per-word thrash).  The bound is
``max(capacity_words, largest single take)`` words buffered (plus the
blocks in flight on the channel): the batch engine asks for a whole fleet
layer at once -- ``ANDs in the layer * ceil(n / 64)`` words, which can
exceed the capacity -- and a starved ``take`` holds puts open until its
request is covered, so the queue then fills to that request and no further.

Producers default to **threads**: with the wire model on (the default),
producers spend most of their wall time sleeping out simulated link
transfers, releasing the GIL -- which is exactly the time the online
engine's CPU work fills.  Blocks then flow by reference, with no
serialization cost.  ``mode="process"`` forks real producer processes
instead, which is what compute-bound production (``link_bandwidth_bps=None``
on a multi-core box) needs, since the numpy bit-packing kernels hold the
GIL.

Failure is never a hang: if a producer dies (exception, ``SIGKILL``), the
feeder marks the queue failed and every blocked or future ``take`` raises
:class:`OfflineProducerError`.
"""

from __future__ import annotations

import multiprocessing
import queue as stdlib_queue
import sys
import threading
import time
from collections import deque

import numpy as np

from .generator import (
    DEFAULT_OFFLINE_BANDWIDTH_BPS,
    DEFAULT_OFFLINE_LATENCY_S,
    KAPPA,
    DealerlessTripleGenerator,
)
from .phases import PhaseStats
from .sources import OfflineError, OfflineExhausted, _WordServingSource

__all__ = [
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
# tight for as long as *any* thread-mode factory is live: the first start
# saves the caller's value, the last close restores it.
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


class QueueClosed(OfflineError):
    """The factory was closed while triples were still being awaited."""


class OfflineProducerError(OfflineError):
    """A producer task died (exception or kill) before finishing its quota."""


class TripleQueue:
    """Bounded buffer of bitsliced triple words with watermark hysteresis.

    Producers append whole blocks via :meth:`put_block`; the consumer draws
    arbitrary word counts via :meth:`take`.  When depth reaches
    ``capacity_words`` the queue enters draining state and puts block until
    depth falls to ``low_watermark`` (or a consumer is starved, which
    force-reopens puts so a take larger than the remaining depth -- or than
    ``capacity_words`` itself -- can never deadlock against the watermark;
    depth then peaks at the size of that take).
    """

    def __init__(self, capacity_words: int, low_watermark: int | None = None):
        if capacity_words < 1:
            raise ValueError(f"capacity_words must be positive, got {capacity_words}")
        self.capacity_words = capacity_words
        self.low_watermark = (
            low_watermark if low_watermark is not None else max(1, capacity_words // 4)
        )
        if not 0 <= self.low_watermark <= capacity_words:
            raise ValueError(
                f"low_watermark {self.low_watermark} outside [0, {capacity_words}]"
            )
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        # Each entry: [a, b, c] arrays of shape (words, parties); the head
        # entry may be partially consumed, tracked by ``_head_offset``.
        self._blocks: deque[list[np.ndarray]] = deque()
        self._head_offset = 0
        self._depth = 0
        self._draining = False
        self._closed = False
        self._finished = False
        self._failure: BaseException | None = None
        self.words_put = 0
        self.words_taken = 0
        self.refill_cycles = 0

    @property
    def depth_words(self) -> int:
        with self._lock:
            return self._depth

    def put_block(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Append a block of full 64-lane words; blocks while draining."""
        n = int(a.shape[0])
        with self._state_changed:
            while self._draining and not (self._closed or self._failure):
                self._state_changed.wait(timeout=1.0)
            if self._failure is not None:
                raise OfflineProducerError(str(self._failure)) from self._failure
            if self._closed:
                raise QueueClosed("queue closed while producing")
            self._blocks.append([a, b, c])
            self._depth += n
            self.words_put += n
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
                if self._failure is not None:
                    raise OfflineProducerError(str(self._failure)) from self._failure
                if self._closed:
                    raise QueueClosed("queue closed while awaiting triples")
                if self._finished:
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
                self._state_changed.wait(timeout=min(remaining, 1.0))
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

    def finish(self) -> None:
        """Producers completed their quota; takes beyond depth now error."""
        with self._state_changed:
            self._finished = True
            self._state_changed.notify_all()

    def unfinish(self) -> None:
        """More production is coming (a new quota wave); clear exhaustion."""
        with self._state_changed:
            self._finished = False
            self._state_changed.notify_all()

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


def _stats_from_dict(d: dict) -> PhaseStats:
    stats = PhaseStats(
        bits_sent=d["bits_sent"],
        messages=d["messages"],
        rounds=d["rounds"],
        wall_time_s=d.get("wall_time_s", 0.0),
    )
    stats.per_party_bits.update({int(k): v for k, v in d.get("per_party_bits", {}).items()})
    return stats


def _stats_to_dict(stats: PhaseStats, wall_time_s: float = 0.0) -> dict:
    return {
        "bits_sent": stats.bits_sent,
        "messages": stats.messages,
        "rounds": stats.rounds,
        "wall_time_s": wall_time_s,
        "per_party_bits": dict(stats.per_party_bits),
    }


def _producer_main(
    work_q,
    out_q,
    producer_id: int,
    parties: int,
    seed: int,
    block_words: int,
    kappa: int,
    wire_bandwidth_bps: float | None = None,
    wire_latency_s: float = 0.0,
    stop_event: threading.Event | None = None,
) -> None:
    """Persistent producer loop: runs in a child process (or thread).

    Pulls word-count chunks off the shared ``work_q`` until it sees the
    ``None`` sentinel (or, in thread mode, the stop event), so a mid-run
    quota top-up never pays a process spawn -- the workers are already hot.
    """

    def put(item) -> bool:
        # Child processes block here when the channel is full (backpressure)
        # and get terminated by close(); thread producers poll the stop
        # event instead so close() never strands them on a full channel.
        if stop_event is None:
            out_q.put(item)
            return True
        while not stop_event.is_set():
            try:
                out_q.put(item, timeout=0.2)
                return True
            except stdlib_queue.Full:
                continue
        return False

    def next_chunk():
        while stop_event is None or not stop_event.is_set():
            try:
                return work_q.get(timeout=0.2)
            except stdlib_queue.Empty:
                continue
        return None

    try:
        gen = DealerlessTripleGenerator(
            parties,
            seed,
            kappa=kappa,
            link_bandwidth_bps=wire_bandwidth_bps,
            link_latency_s=wire_latency_s,
            # Thread producers abandon in-flight wire waits on shutdown so
            # close() reclaims them immediately.
            interrupt=stop_event,
        )
        t0 = time.perf_counter()
        setup = gen.setup()
        if not put(
            ("setup", producer_id, _stats_to_dict(setup, time.perf_counter() - t0))
        ):
            return
        while True:
            chunk = next_chunk()
            if chunk is None:
                break
            remaining = int(chunk)
            while remaining > 0:
                n = min(block_words, remaining)
                t0 = time.perf_counter()
                blk = gen.generate(n)
                dt = time.perf_counter() - t0
                if not put(
                    (
                        "block",
                        producer_id,
                        blk.a,
                        blk.b,
                        blk.c,
                        _stats_to_dict(blk.stats, dt),
                    )
                ):
                    return
                remaining -= n
        put(("done", producer_id))
    except QueueClosed:
        pass
    except BaseException as exc:  # noqa: BLE001 - must cross the process boundary
        try:
            put(("error", producer_id, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


class _ThreadChannel:
    """Duck-typed stand-in for ``mp.Queue`` when producers are threads."""

    def __init__(self, maxsize: int):
        self._q: stdlib_queue.Queue = stdlib_queue.Queue(maxsize=maxsize)

    def put(self, item, timeout: float | None = None) -> None:
        self._q.put(item, timeout=timeout)

    def get(self, timeout: float):
        return self._q.get(timeout=timeout)


class TripleFactory:
    """Runs dealerless producers ahead of the online phase.

    ``target_words`` is the total preprocessing quota.  :meth:`start`
    launches ``producers`` *persistent* workers that pull block-sized word
    chunks off a shared work queue and stream finished blocks through a
    bounded channel into the in-process :class:`TripleQueue`; the online
    engines then consume via :meth:`source`.  Because workers are
    persistent, a mid-run :meth:`add_quota` is just more chunks on the work
    queue -- no spawn cost on the protocol's critical path.  Use as a
    context manager, or call :meth:`close` explicitly -- close is
    idempotent and also runs on failure paths.

    ``mode="thread"`` (default) keeps producers in-process: they are
    wire-wait dominated (see module docstring), so threads overlap cleanly
    with online CPU and hand blocks over by reference.  ``mode="process"``
    forks real producer processes for compute-bound production and for
    fault-injection tests.  Producers simulate the offline wire (see
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
        low_watermark: int | None = None,
        mode: str = "thread",
        kappa: int = KAPPA,
        link_bandwidth_bps: float | None = DEFAULT_OFFLINE_BANDWIDTH_BPS,
        link_latency_s: float = DEFAULT_OFFLINE_LATENCY_S,
    ):
        if target_words < 0:
            raise ValueError(f"target_words must be non-negative, got {target_words}")
        if producers < 1:
            raise ValueError(f"need at least one producer, got {producers}")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread', got {mode}")
        self.parties = parties
        self.seed = seed
        self.target_words = target_words
        self.producers = producers
        self.block_words = block_words
        self.mode = mode
        self.kappa = kappa
        # Producers share the provisioned offline link: each gets an even
        # bandwidth slice, so aggregate wire time is bandwidth-conserving.
        self.link_bandwidth_bps = (
            None if link_bandwidth_bps is None else link_bandwidth_bps / producers
        )
        self.link_latency_s = link_latency_s
        self.queue = TripleQueue(capacity_words, low_watermark)
        self.setup_stats = PhaseStats()
        self.offline_stats = PhaseStats()
        self._producer_rounds: dict[int, int] = {}
        self._workers: list = []
        self._feeder: threading.Thread | None = None
        self._feeder_stop = threading.Event()
        self._production_over = threading.Event()
        # Serializes quota bookkeeping between add_quota (caller thread)
        # and the feeder's finished-signal, so a quota top-up can never
        # race a stale "all done" into a spurious OfflineExhausted.
        self._admin_lock = threading.Lock()
        self._dispatched_words = 0
        self._started = False
        self._closed = False
        self.started_at: float | None = None
        self.finished_at: float | None = None

    # ------------------------------------------------------------------
    def start(self) -> "TripleFactory":
        if self._started:
            raise OfflineError("factory already started")
        self._started = True
        self.started_at = time.perf_counter()
        # Bound in-flight blocks between child and feeder so backpressure
        # reaches the producers even before the TripleQueue fills.
        channel_depth = max(2, self.queue.capacity_words // max(1, self.block_words))
        if self.mode == "process":
            self._ctx = self._mp_context()
            self._channel = self._ctx.Queue(maxsize=channel_depth)
            self._work_q = self._ctx.Queue()
        else:
            self._ctx = None
            self._channel = _ThreadChannel(maxsize=channel_depth)
            self._work_q = _ThreadChannel(maxsize=0)
            _acquire_switch_interval()
        self._spawn_workers()
        with self._admin_lock:
            self._dispatch(self.target_words)
        self._feeder = threading.Thread(target=self._feed, daemon=True)
        self._feeder.start()
        return self

    def add_quota(self, words: int) -> None:
        """Enqueue ``words`` of additional production on the live workers.

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
        with self._admin_lock:
            self.target_words += words
            self.finished_at = None
            self._production_over.clear()
            self.queue.unfinish()
            self._dispatch(words)

    def _spawn_workers(self) -> None:
        """Launch the persistent producer pool (once, at start)."""
        for pid in range(self.producers):
            args = (
                self._work_q,
                self._channel,
                pid,
                self.parties,
                self._producer_seed(pid),
                self.block_words,
                self.kappa,
                self.link_bandwidth_bps,
                self.link_latency_s,
            )
            if self.mode == "process":
                worker = self._ctx.Process(target=_producer_main, args=args, daemon=True)
            else:
                worker = threading.Thread(
                    target=_producer_main, args=args + (self._feeder_stop,), daemon=True
                )
            worker.start()
            self._workers.append(worker)

    def _dispatch(self, words: int) -> None:
        """Split ``words`` into block-sized chunks on the work queue (lock held).

        Block granularity keeps the pool load-balanced: whichever worker
        frees up first takes the next chunk.
        """
        full, rem = divmod(words, self.block_words)
        for _ in range(full):
            self._work_q.put(self.block_words)
        if rem:
            self._work_q.put(rem)
        self._dispatched_words += words

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
        if not self._production_over.wait(timeout=timeout):
            raise OfflineError("timed out waiting for producers to finish")
        failure = self.queue._failure
        if failure is not None:
            raise OfflineProducerError(str(failure)) from failure

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._feeder_stop.set()
        # Close the queue first: a feeder parked in put_block (draining)
        # exits via QueueClosed instead of riding out its join timeout.
        self.queue.close()
        # Sentinels let idle process workers exit cleanly; busy or wedged
        # ones get terminated below (thread workers poll the stop event).
        if self._started:
            for _ in self._workers:
                try:
                    self._work_q.put(None)
                except Exception:
                    break
            # Wake a feeder parked on an empty channel so it notices the
            # stop flag now instead of riding out its poll timeout.
            try:
                self._channel.put(("wake",), timeout=0.01)
            except Exception:
                pass
        if self._feeder is not None:
            self._feeder.join(timeout=5.0)
        for w in self._workers:
            if isinstance(w, threading.Thread):
                w.join(timeout=2.0)
            else:
                w.join(timeout=0.5)
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=1.0)
        if self.mode == "process":
            # Undelivered chunks may still sit in the mp queues' feeder
            # buffers; without cancel_join_thread a dead consumer (e.g. a
            # killed worker) would deadlock interpreter exit on the flush.
            for q in (self._work_q, self._channel):
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass
        if self._started and self.mode == "thread":
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
    def production_span_s(self) -> float:
        """Wall-clock from start to last block enqueued (0 while running)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def _producer_seed(self, k: int) -> int:
        # Distinct deterministic streams per producer.
        return (self.seed * 0x9E3779B97F4A7C15 + k + 1) & 0xFFFFFFFFFFFFFFFF

    @staticmethod
    def _mp_context():
        # ``fork`` keeps producer startup at ~10 ms (numpy already mapped);
        # unlike the serving fleet, producers are forked exactly once from
        # the caller's thread before any pipeline threads exist, so the
        # fork-with-threads hazard that pushes the fleet to spawn does not
        # apply here.  Fall back to spawn where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def _feed(self) -> None:
        """Feeder thread: drain the channel into the queue, watch for deaths."""
        suspicion = 0
        try:
            self._maybe_finish()  # degenerate zero-quota start
            while not self._feeder_stop.is_set():
                try:
                    item = self._channel.get(timeout=0.1)
                except (stdlib_queue.Empty, OSError, EOFError):
                    # A worker death is only fatal while quota is outstanding; a
                    # block can still be crossing the channel when its
                    # producer gets killed, so require two consecutive empty
                    # windows before declaring the pipeline dead.
                    if not self._production_over.is_set() and self._dead_producer():
                        suspicion += 1
                        if suspicion >= 2:
                            self.queue.fail(
                                OfflineProducerError(
                                    "offline producer died before finishing its "
                                    "quota (killed or crashed hard)"
                                )
                            )
                            return
                    else:
                        suspicion = 0
                    continue
                suspicion = 0
                kind = item[0]
                if kind == "block":
                    _, _, a, b, c, stats_dict = item
                    self.offline_stats.add(_stats_from_dict(stats_dict))
                    pid = item[1]
                    self._producer_rounds[pid] = (
                        self._producer_rounds.get(pid, 0) + stats_dict["rounds"]
                    )
                    self.queue.put_block(a, b, c)
                    self._maybe_finish()
                elif kind == "setup":
                    self.setup_stats.add(_stats_from_dict(item[2]))
                elif kind == "error":
                    self.queue.fail(
                        OfflineProducerError(f"producer {item[1]} failed: {item[2]}")
                    )
                    return
                # "done" (a worker retired on the close sentinel) needs no
                # bookkeeping: completion is tracked by words, not workers.
        except QueueClosed:
            pass
        except BaseException as exc:  # noqa: BLE001 - never die silently
            self.queue.fail(exc)
        finally:
            self._production_over.set()

    def _maybe_finish(self) -> None:
        """Signal quota completion; stays re-armable for later top-ups."""
        with self._admin_lock:
            if self._production_over.is_set():
                return
            if self.queue.words_put < self.target_words:
                return
            # Parallel producers: phase round count is the slowest
            # producer's sequential rounds, not the sum across producers.
            if self._producer_rounds:
                self.offline_stats.rounds = max(self._producer_rounds.values())
            self.finished_at = time.perf_counter()
            self.queue.finish()
            self._production_over.set()

    def _dead_producer(self) -> bool:
        if self.mode != "process":
            return any(not w.is_alive() for w in self._workers)
        return any(
            not w.is_alive() and w.exitcode != 0 for w in self._workers
        )


class FactoryTripleSource(_WordServingSource):
    """Dealer-compatible source streaming from a running factory."""

    def __init__(self, factory: TripleFactory):
        super().__init__(factory.parties)
        self.factory = factory
        self.stall_time_s = 0.0

    def _take_words(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t0 = time.perf_counter()
        arrays = self.factory.queue.take(count)
        self.stall_time_s += time.perf_counter() - t0
        return arrays
