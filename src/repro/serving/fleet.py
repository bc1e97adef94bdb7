"""Process-per-shard serving fleet with a supervising parent.

``bench_serving_throughput.py`` showed the single-process runtime flatlines
at one closed-loop worker: client, server and providers share one
GIL-bound event loop, so the loop -- not the protocol -- is the throughput
ceiling.  The paper's index is owner-sharded (``QueryPPI`` is a static
per-owner lookup, Sec. II-A), which makes shards embarrassingly parallel:
this module runs one :class:`~repro.serving.server.PPIServer` per shard in
its **own OS process**, each with its own event loop, so throughput scales
with cores.

The :class:`FleetSupervisor` is the operational parent:

* **boot** -- every worker loads the index from a binary snapshot
  (:mod:`repro.serving.snapshot`), not from JSON; a format-v2 snapshot is
  memory-mapped (CSR postings), so a restart is O(1) in index size and
  all shard processes on the host share the index pages read-only;
* **stable addresses** -- the supervisor assigns each shard its port once;
  a restarted worker rebinds the same address, so clients only ever see a
  transient connection failure (retried) and never a topology change;
* **health checks** -- each round, every worker answers the existing
  ``stats`` verb over a short-timeout socket; a dead process or
  ``unhealthy_after`` consecutive failed checks (a wedged loop) triggers a
  restart;
* **supervised restarts** -- capped exponential backoff per worker
  (``backoff_base_s * 2**k``, capped at ``backoff_max_s``); after
  ``max_restarts`` consecutive failed lives the worker is marked
  ``failed`` and left down (its shard answers connection-refused, the rest
  of the fleet keeps serving);
* **fleet metrics** -- :meth:`fleet_stats` merges every worker's ``stats``
  snapshot with the supervisor's own counters (restarts, health checks)
  and surfaces each shard's serving ``epoch``;
* **read replicas & promotion** -- ``read_replicas`` extra workers per
  shard on their own ports (the read tier ``repro.replication`` feeds);
  :meth:`promote` -- run automatically when a primary is given up on --
  swaps a live replica into the primary slot so ``addresses`` keeps
  pointing at a serving process.

Worker processes are started via a ``forkserver``/``spawn``
:mod:`multiprocessing` context (never plain ``fork``): restarts happen on
the monitor thread, and forking a multi-threaded parent is a deadlock
lottery.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.serving.metrics import MetricsRegistry
from repro.serving.protocol import (
    VERB_INFO,
    VERB_PING,
    VERB_RELOAD,
    VERB_STATS,
    raise_for_response,
)
from repro.serving.protocol_v2 import encode_request_v2, read_frame_sync
from repro.serving.server import PPIServer, ShardSpec
from repro.serving.snapshot import load_serving_state, snapshot_epoch

__all__ = [
    "FleetSupervisor",
    "WorkerSpec",
    "rolling_reload",
    "sync_request",
]

# -- synchronous protocol client (the supervisor has no event loop) -----------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk
    return buf


def sync_request(
    addr: tuple,
    verb: str,
    timeout_s: float = 1.0,
    **fields: Any,
) -> dict[str, Any]:
    """One framed request/response over a fresh blocking socket.

    The supervisor's health checks (and CLI smoke probes) run outside any
    event loop; a connect-per-probe keeps the check independent of the
    worker's connection state -- a worker wedged with poisoned connections
    but a live listener still fails the probe via its read timeout.
    """
    wire = encode_request_v2({"id": 0, "verb": verb, **fields})
    with socket.create_connection(tuple(addr), timeout=timeout_s) as sock:
        sock.settimeout(timeout_s)
        sock.sendall(wire)
        response = read_frame_sync(lambda n: _recv_exact(sock, n))
    return raise_for_response(response)


def rolling_reload(
    shards: Iterable[Sequence[tuple]],
    snapshot_path: str,
    reload_timeout_s: float,
    probe_timeout_s: float,
    settle_timeout_s: float,
    supervise: Callable[[], bool] = lambda: True,
) -> Iterator[tuple]:
    """Move a fleet onto ``snapshot_path`` one shard at a time.

    ``shards`` gives each shard's server addresses in shard order; it is
    read lazily, so a caller can prepare shard ``k`` just before it rolls.
    Each address gets the ``reload`` verb, then the shard must *settle* --
    ``supervise()`` (run once per poll) is true and every address answers
    ``info`` with the snapshot's epoch -- before the next shard is touched.

    Yields ``(event, shard, detail)``: ``("reload-request-failed", k,
    exc)`` per refused request (the settle poll decides), ``("rolled", k,
    epoch)``, ``("rollout-skipped-failed", k, None)`` for a shard with no
    address, and ``("rollout-stuck", k, epoch)``, after which it stops:
    the remaining shards keep the old epoch.
    """
    target_epoch = snapshot_epoch(snapshot_path)
    for shard, addresses in enumerate(shards):
        if not addresses:
            yield ("rollout-skipped-failed", shard, None)
            continue
        for addr in addresses:
            try:
                sync_request(
                    addr, VERB_RELOAD, timeout_s=reload_timeout_s,
                    snapshot=snapshot_path,
                )
            except Exception as exc:  # noqa: BLE001 -- the settle poll decides
                yield ("reload-request-failed", shard, exc)
        deadline = time.monotonic() + settle_timeout_s
        while not (supervise() and _at_epoch(addresses, target_epoch, probe_timeout_s)):
            if time.monotonic() >= deadline:
                yield ("rollout-stuck", shard, target_epoch)
                return
            time.sleep(0.02)
        yield ("rolled", shard, target_epoch)


def _at_epoch(addresses: Sequence[tuple], epoch: int, timeout_s: float) -> bool:
    try:
        return all(
            sync_request(addr, VERB_INFO, timeout_s=timeout_s).get("epoch") == epoch
            for addr in addresses
        )
    except Exception:  # noqa: BLE001 -- worker mid-restart: keep waiting
        return False


# -- the worker process -------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to host its shard (picklable).

    Every worker owns one listening address.  The ``primary`` is the
    shard's canonical serving slot (``replica`` 0); ``replica`` workers
    (numbered ``1..R``) carry the same shard on their own port and exist
    to absorb reads and to be promoted when the primary is given up on.
    """

    shard_id: int
    n_shards: int
    snapshot_path: str
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    replica: int = 0
    role: str = "primary"


def _worker_main(spec: WorkerSpec) -> None:
    """Entry point of one shard process: load snapshot, serve until SIGTERM."""
    index, epoch = load_serving_state(spec.snapshot_path)
    server = PPIServer(
        index,
        shard=ShardSpec(spec.shard_id, spec.n_shards),
        host=spec.host,
        port=spec.port,
        max_inflight=spec.max_inflight,
        snapshot_path=spec.snapshot_path,
        epoch=epoch,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await server.start()
        await stop.wait()
        await server.stop()

    asyncio.run(_serve())


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


class _WorkerHandle:
    """Supervisor-side state machine for one shard process.

    States: ``starting`` (spawned, not yet answering), ``healthy``,
    ``unhealthy`` (missed checks, below the restart threshold),
    ``waiting-restart`` (dead, backoff timer running), ``failed``
    (gave up), ``stopped``.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.state = "stopped"
        self.restarts = 0  # lifetime restarts (observability)
        self.backoff_level = 0  # consecutive lives that never got healthy
        self.health_failures = 0  # consecutive failed checks this life
        self.ready_deadline = 0.0
        self.next_start_at = 0.0

    @property
    def address(self) -> tuple:
        return (self.spec.host, self.spec.port)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class FleetSupervisor:
    """Run and babysit one :class:`PPIServer` process per shard."""

    def __init__(
        self,
        snapshot_path: str,
        n_shards: int,
        host: str = "127.0.0.1",
        ports: Optional[list] = None,
        max_inflight: int = 64,
        health_interval_s: float = 0.25,
        health_timeout_s: float = 1.0,
        unhealthy_after: int = 3,
        max_restarts: int = 8,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        start_timeout_s: float = 30.0,
        mp_start_method: Optional[str] = None,
        read_replicas: int = 0,
        replica_ports: Optional[list] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if ports is not None and len(ports) != n_shards:
            raise ValueError(f"{n_shards} shards but {len(ports)} ports")
        if read_replicas < 0:
            raise ValueError(f"read_replicas must be >= 0, got {read_replicas}")
        if replica_ports is not None and len(replica_ports) != n_shards * read_replicas:
            raise ValueError(
                f"{n_shards * read_replicas} read replicas but "
                f"{len(replica_ports)} replica ports"
            )
        if unhealthy_after < 1 or max_restarts < 0:
            raise ValueError("unhealthy_after must be >= 1, max_restarts >= 0")
        self.snapshot_path = snapshot_path
        self.n_shards = n_shards
        self.read_replicas = read_replicas
        self.host = host
        self.health_interval_s = health_interval_s
        self.health_timeout_s = health_timeout_s
        self.unhealthy_after = unhealthy_after
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.start_timeout_s = start_timeout_s
        self.metrics = MetricsRegistry()
        if mp_start_method is None:
            available = multiprocessing.get_all_start_methods()
            mp_start_method = "forkserver" if "forkserver" in available else "spawn"
        self._ctx = multiprocessing.get_context(mp_start_method)
        if mp_start_method == "forkserver":
            # Restart latency is a recovery-time budget: preload the heavy
            # imports once so a respawned worker is a cheap fork + bind.
            self._ctx.set_forkserver_preload(["repro.serving.fleet"])
        # One handle per listening address: every shard's primary (replica
        # 0), then its read replicas 1..R -- the geo-read tier.  A slot
        # without a caller-assigned port gets a free one, once.
        slots = [(i, 0) for i in range(n_shards)] + [
            (i, 1 + r) for i in range(n_shards) for r in range(read_replicas)
        ]
        assigned = list(ports or [None] * n_shards) + list(
            replica_ports or [None] * (n_shards * read_replicas)
        )
        self._workers = [
            _WorkerHandle(
                WorkerSpec(
                    shard_id=shard,
                    n_shards=n_shards,
                    snapshot_path=snapshot_path,
                    host=host,
                    port=_free_port(host) if port is None else port,
                    max_inflight=max_inflight,
                    replica=replica,
                    role="replica" if replica else "primary",
                )
            )
            for (shard, replica), port in zip(slots, assigned)
        ]
        self._monitor_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._lock = threading.Lock()  # check_once vs. stop/start

    # -- topology -------------------------------------------------------------

    @property
    def addresses(self) -> list:
        """One ``(host, port)`` per shard, in shard order -- the *current
        primary's* address, directly usable as ``LocatorClient(servers=...)``.
        After a promotion the entry points at the promoted read replica."""
        return [self._primary(shard).address for shard in range(self.n_shards)]

    @property
    def replica_sets(self) -> list:
        """Per shard: the primary address followed by every read-replica
        address, in shard order -- the ``LocatorClient(servers=...)`` shape
        for replica-aware routing (the client rendezvous-hashes within each
        set and fails over on connection errors)."""
        out = []
        for shard in range(self.n_shards):
            addrs = [self._primary(shard).address]
            addrs += [
                w.address
                for w in self._workers
                if w.spec.shard_id == shard and w.spec.role == "replica"
            ]
            out.append(addrs)
        return out

    def _primary(self, shard: int) -> _WorkerHandle:
        for worker in self._workers:
            if worker.spec.shard_id == shard and worker.spec.role == "primary":
                return worker
        raise ValueError(f"no such shard: {shard}")

    def worker_states(self) -> dict[int, dict[str, Any]]:
        """Per-process states, keyed by flat worker index.  Without read
        replicas the index *is* the shard id; otherwise the ``shard`` /
        ``replica`` / ``role`` fields tell processes apart."""
        return {
            k: {
                "state": w.state,
                "pid": w.pid,
                "restarts": w.restarts,
                "address": list(w.address),
                "shard": w.spec.shard_id,
                "replica": w.spec.replica,
                "role": w.spec.role,
            }
            for k, w in enumerate(self._workers)
        }

    # -- lifecycle ------------------------------------------------------------

    def start(self, monitor: bool = True) -> "FleetSupervisor":
        """Spawn every worker, wait until all answer ``ping``, then (by
        default) start the background monitor thread."""
        now = time.monotonic()
        with self._lock:
            for worker in self._workers:
                self._spawn(worker, now)
        deadline = time.monotonic() + self.start_timeout_s
        pending = list(self._workers)
        while pending:
            still_pending = []
            for worker in pending:
                if self._probe(worker):
                    worker.state = "healthy"
                else:
                    still_pending.append(worker)
            pending = still_pending
            if not pending:
                break
            if time.monotonic() > deadline:
                self.stop()
                shards = [w.spec.shard_id for w in pending]
                raise TimeoutError(
                    f"shards {shards} not serving after {self.start_timeout_s}s"
                )
            time.sleep(0.02)
        if monitor:
            self.start_monitor()
        return self

    def stop(self, grace_s: float = 3.0) -> None:
        """Stop the monitor, SIGTERM every worker, escalate to SIGKILL."""
        self.stop_monitor()
        with self._lock:
            for worker in self._workers:
                if worker.process is not None and worker.process.is_alive():
                    worker.process.terminate()
            deadline = time.monotonic() + grace_s
            for worker in self._workers:
                if worker.process is None:
                    continue
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(1.0)
                worker.process = None
                worker.state = "stopped"

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- monitoring -----------------------------------------------------------

    def start_monitor(self) -> None:
        if self._monitor_thread is not None:
            return
        self._stop_event.clear()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor_thread.start()

    def stop_monitor(self) -> None:
        if self._monitor_thread is None:
            return
        self._stop_event.set()
        self._monitor_thread.join(timeout=10.0)
        self._monitor_thread = None

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.health_interval_s):
            self.check_once()

    def check_once(self, now: Optional[float] = None) -> list:
        """One supervision round over every worker; returns the events
        (``(kind, shard_id)`` tuples) it acted on.  Thread-safe; called by
        the monitor thread or directly (deterministic tests, CLI)."""
        now = time.monotonic() if now is None else now
        events: list = []
        with self._lock:
            for worker in self._workers:
                events.extend(self._check_worker(worker, now))
        return events

    def _check_worker(self, worker: _WorkerHandle, now: float) -> list:
        if worker.state in ("failed", "stopped"):
            return []
        if worker.state == "waiting-restart":
            if now < worker.next_start_at:
                return []
            self._spawn(worker, now)
            worker.restarts += 1
            self.metrics.counter("restarts_total").inc()
            return [("restarted", worker.spec.shard_id)]
        if not worker.alive:
            self.metrics.counter("worker_deaths_total").inc()
            self._kill(worker)  # reap the corpse
            return [("died", worker.spec.shard_id), *self._schedule_restart(worker, now)]
        # Process is alive: probe the serving path.
        self.metrics.counter("health_checks_total").inc()
        if self._probe(worker):
            recovered = worker.state != "healthy"
            worker.state = "healthy"
            worker.health_failures = 0
            worker.backoff_level = 0
            return [("healthy", worker.spec.shard_id)] if recovered else []
        self.metrics.counter("health_failures_total").inc()
        if worker.state == "starting":
            if now <= worker.ready_deadline:
                return []  # still booting, give it time
            self._kill(worker)
            return [
                ("start-timeout", worker.spec.shard_id),
                *self._schedule_restart(worker, now),
            ]
        worker.health_failures += 1
        if worker.health_failures < self.unhealthy_after:
            worker.state = "unhealthy"
            return [("unhealthy", worker.spec.shard_id)]
        # Wedged: listener up (or half-dead) but not answering.
        self._kill(worker)
        return [("wedged", worker.spec.shard_id), *self._schedule_restart(worker, now)]

    def _probe(self, worker: _WorkerHandle) -> bool:
        try:
            sync_request(worker.address, VERB_PING, timeout_s=self.health_timeout_s)
            return True
        except Exception:  # noqa: BLE001 -- any probe failure means unhealthy
            return False

    def _spawn(self, worker: _WorkerHandle, now: float) -> None:
        worker.process = self._ctx.Process(
            target=_worker_main, args=(worker.spec,), daemon=True
        )
        worker.process.start()
        worker.state = "starting"
        worker.health_failures = 0
        worker.ready_deadline = now + self.start_timeout_s

    def _kill(self, worker: _WorkerHandle) -> None:
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(1.0)
        worker.process = None

    def _schedule_restart(self, worker: _WorkerHandle, now: float) -> list:
        worker.backoff_level += 1
        if worker.backoff_level > self.max_restarts:
            worker.state = "failed"
            self.metrics.counter("workers_given_up").inc()
            events = [("gave-up", worker.spec.shard_id)]
            # A failed *primary* takes its shard's canonical address down
            # with it; if a read replica is standing by, promote it so
            # ``addresses`` keeps pointing at a live server.
            if worker.spec.role == "primary":
                try:
                    events.append(self._promote_locked(worker.spec.shard_id))
                except RuntimeError:
                    pass  # no promotable replica: the shard stays down
            return events
        delay = min(
            self.backoff_max_s, self.backoff_base_s * 2 ** (worker.backoff_level - 1)
        )
        worker.next_start_at = now + delay
        worker.state = "waiting-restart"
        return []

    # -- failover promotion ---------------------------------------------------

    def promote(self, shard_id: int, replica: Optional[int] = None) -> tuple:
        """Swap a read replica into shard ``shard_id``'s primary slot.

        The promoted worker keeps its own port; ``addresses`` /
        ``replica_sets`` re-point at it, and the demoted ex-primary (alive
        or not) becomes a read replica.  ``replica`` pins the choice;
        otherwise the lowest-numbered healthy replica wins (falling back to
        any live one).  Runs automatically when a primary is given up on.
        Returns the ``("promoted", (shard, replica))`` event.
        """
        with self._lock:
            return self._promote_locked(shard_id, replica)

    def _promote_locked(self, shard_id: int, replica: Optional[int] = None) -> tuple:
        primary = self._primary(shard_id)
        candidates = [
            w
            for w in self._workers
            if w.spec.shard_id == shard_id and w.spec.role == "replica"
        ]
        if replica is not None:
            candidates = [w for w in candidates if w.spec.replica == replica]
        healthy = [w for w in candidates if w.state == "healthy"]
        pool = healthy or [w for w in candidates if w.alive]
        if not pool:
            raise RuntimeError(f"shard {shard_id} has no live replica to promote")
        chosen = min(pool, key=lambda w: w.spec.replica)
        primary.spec = dataclasses.replace(primary.spec, role="replica")
        chosen.spec = dataclasses.replace(chosen.spec, role="primary")
        self.metrics.counter("promotions_total").inc()
        return ("promoted", (shard_id, chosen.spec.replica))

    # -- rolling reload -------------------------------------------------------

    def rollout(
        self,
        snapshot_path: str,
        settle_timeout_s: float = 30.0,
        reload_timeout_s: float = 30.0,
    ) -> list:
        """Rolling per-shard hot-swap of the fleet onto ``snapshot_path``.

        :func:`rolling_reload` over this fleet's workers.  Just before a
        shard rolls, its workers' specs are repointed at the new snapshot,
        so a worker that *dies* mid-rollout is restarted already on the new
        epoch; a shard settles only once all its live workers are alive.
        A worker reloads without dropping its listener, so clients see no
        connection errors, and at most one shard is mid-swap at any moment.
        A shard that fails to settle aborts the rollout (mixed-epoch fleets
        are safe: clients invalidate per-response, not per-fleet).  Returns
        the ``(event, shard)`` list.
        """
        monitor_running = self._monitor_thread is not None
        live: list = []  # the shard being rolled: its workers not given up on

        def shards() -> Iterator[list]:
            for shard in range(self.n_shards):
                replicas = [w for w in self._workers if w.spec.shard_id == shard]
                with self._lock:
                    for worker in replicas:
                        worker.spec = dataclasses.replace(
                            worker.spec, snapshot_path=snapshot_path
                        )
                live[:] = [w for w in replicas if w.state != "failed"]
                # One listener per address: the shard's primary slot
                # first, then each read replica.
                yield [w.address for w in live]

        def supervise() -> bool:
            if not monitor_running:
                # No monitor thread: drive supervision here, so a shard
                # killed mid-rollout is restarted (on the new snapshot).
                self.check_once()
            return all(w.alive for w in live)

        events: list = []
        for kind, shard, _ in rolling_reload(
            shards(),
            snapshot_path,
            reload_timeout_s=reload_timeout_s,
            probe_timeout_s=self.health_timeout_s,
            settle_timeout_s=settle_timeout_s,
            supervise=supervise,
        ):
            events.append((kind, shard))
            if kind == "rolled":
                self.metrics.counter("shard_reloads_total").inc()
            elif kind == "rollout-stuck":
                self.metrics.counter("rollouts_aborted_total").inc()
                return events
        self.snapshot_path = snapshot_path
        self.metrics.counter("rollouts_total").inc()
        return events

    # -- metrics --------------------------------------------------------------

    def fleet_stats(self) -> dict[str, Any]:
        """Fleet-wide view: supervisor counters, per-worker state + live
        ``stats`` snapshot, and counters summed across reachable workers.

        Every worker process owns its address, so one ``stats`` probe per
        worker reaches each exactly once and the aggregate is an exact
        tally over the reachable ones.

        Each probed worker's serving ``epoch`` (the ``epoch`` gauge every
        server maintains) is lifted into the per-worker dict, and the
        primaries' epochs are collected into a top-level ``epochs`` map
        keyed by shard -- the fleet-wide view a rollout or a replication
        catch-up is trying to converge.
        """
        workers: dict[int, dict[str, Any]] = self.worker_states()
        aggregate: dict[str, float] = {}
        epochs: dict[int, Optional[int]] = {i: None for i in range(self.n_shards)}
        for k, worker in enumerate(self._workers):
            workers[k]["epoch"] = None
            try:
                snapshot = sync_request(
                    worker.address, VERB_STATS, timeout_s=self.health_timeout_s
                )["stats"]
            except Exception:  # noqa: BLE001 -- stats are best-effort
                workers[k]["stats"] = None
                continue
            workers[k]["stats"] = snapshot
            epoch = snapshot.get("gauges", {}).get("epoch")
            if epoch is not None:
                workers[k]["epoch"] = int(epoch)
                if worker.spec.role == "primary":
                    epochs[worker.spec.shard_id] = int(epoch)
            for name, value in snapshot.get("counters", {}).items():
                aggregate[name] = aggregate.get(name, 0) + value
        return {
            "n_shards": self.n_shards,
            "read_replicas": self.read_replicas,
            "supervisor": self.metrics.snapshot(),
            "workers": workers,
            "aggregate_counters": aggregate,
            "epochs": epochs,
        }
