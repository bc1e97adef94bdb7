"""Fleet supervision tests against real worker processes.

These tests spawn actual OS processes (forkserver/spawn context) serving
real TCP sockets, so they are integration tests by construction.  Timings
are tuned tight (50 ms health interval, 20-50 ms backoff base) and every
wait is deadline-bounded -- nothing here sleeps "long enough", it polls
until the asserted state or a generous deadline.

The headline test is the fault injection: SIGKILL a worker while a
closed-loop load generator is hammering the fleet, and require that the
supervisor restarts it within its backoff budget and that *every* query
eventually succeeds -- retries allowed, lost owners not.
"""

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.serving import fleet as fleet_module
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.fleet import FleetSupervisor, sync_request
from repro.serving.loadgen import run_load_sync
from repro.serving.protocol import VERB_INFO, VERB_QUERY, VERB_STATS, RemoteError
from repro.serving.snapshot import save_snapshot

N_PROVIDERS = 8
N_OWNERS = 24


def fleet_index() -> PostingsIndex:
    i, j = np.meshgrid(np.arange(N_PROVIDERS), np.arange(N_OWNERS), indexing="ij")
    return PostingsIndex.from_dense(((i + j) % 3 == 0).astype(np.uint8))


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fleet") / "index.npz")
    save_snapshot(fleet_index(), path)
    return path


def make_supervisor(snapshot_path: str, n_shards: int = 2, **overrides):
    settings = dict(
        health_interval_s=0.05,
        health_timeout_s=0.5,
        unhealthy_after=3,
        max_restarts=4,
        backoff_base_s=0.05,
        backoff_max_s=0.5,
        start_timeout_s=30.0,
    )
    settings.update(overrides)
    return FleetSupervisor(snapshot_path, n_shards, **settings)


def wait_until(predicate, deadline_s: float, what: str):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out after {deadline_s}s waiting for {what}")


class TestLifecycle:
    def test_every_shard_serves_its_owners(self, snapshot_path):
        index = fleet_index()
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            addresses = fleet.addresses
            assert len(addresses) == 2
            for owner_id in range(N_OWNERS):
                response = sync_request(
                    addresses[owner_id % 2], VERB_QUERY, owner=owner_id
                )
                assert response["providers"] == index.query(owner_id)
            states = fleet.worker_states()
            assert all(w["state"] == "healthy" for w in states.values())
            assert all(w["restarts"] == 0 for w in states.values())

    def test_misrouted_query_names_the_right_shard(self, snapshot_path):
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            with pytest.raises(RemoteError) as excinfo:
                sync_request(fleet.addresses[0], VERB_QUERY, owner=1)
            assert excinfo.value.code == "wrong-shard"
            assert excinfo.value.detail["shard"] == 1

    def test_stop_tears_down_every_process(self, snapshot_path):
        fleet = make_supervisor(snapshot_path, n_shards=2)
        fleet.start(monitor=False)
        pids = [w["pid"] for w in fleet.worker_states().values()]
        fleet.stop()
        assert all(w["state"] == "stopped" for w in fleet.worker_states().values())
        for pid in pids:
            # A reaped child is gone; os.kill(pid, 0) must not find it.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        for addr in fleet.addresses:
            with pytest.raises(OSError):
                sync_request(addr, VERB_QUERY, timeout_s=0.3, owner=0)


class TestFaultInjection:
    def test_sigkill_mid_load_loses_no_queries(self, snapshot_path):
        """Kill shard 0 while a closed-loop generator is running.

        The client's retry budget (~8 capped-backoff attempts, several
        seconds) comfortably covers the supervisor's worst-case recovery
        (detect within one 50 ms health round + 50-100 ms backoff + boot),
        so the run must complete with zero errors and correct results.
        A SIGKILL can land mid-frame, and the reconnect/retry path must
        lose zero queries.
        """
        index = fleet_index()
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=True)
            addresses = [tuple(a) for a in fleet.addresses]
            victim_pid = fleet.worker_states()[0]["pid"]

            killed = threading.Event()

            def assassin():
                os.kill(victim_pid, signal.SIGKILL)
                killed.set()

            # Strike shortly into the load run: late enough that queries are
            # in flight, early enough that plenty remain to ride the outage.
            timer = threading.Timer(0.05, assassin)
            timer.start()
            try:
                report = run_load_sync(
                    lambda: LocatorClient(
                        servers=addresses,
                        retry=RetryPolicy(
                            max_retries=8,
                            timeout_s=1.0,
                            base_delay_s=0.05,
                            max_delay_s=0.5,
                        ),
                        cache_size=0,
                    ),
                    owner_ids=list(range(N_OWNERS)),
                    n_workers=4,
                    requests_per_worker=300,
                )
            finally:
                timer.cancel()

            assert killed.is_set(), "assassin never fired; test proves nothing"
            assert report.total == 4 * 300
            assert report.errors == 0, f"{report.errors} queries never succeeded"

            wait_until(
                lambda: fleet.worker_states()[0]["state"] == "healthy",
                deadline_s=10.0,
                what="shard 0 to be restarted and healthy",
            )
            states = fleet.worker_states()
            assert states[0]["restarts"] >= 1
            assert states[0]["pid"] != victim_pid
            assert states[1]["restarts"] == 0
            assert fleet.addresses == list(addresses)  # topology never moved

            # Zero lost owners: after recovery, every owner resolves to the
            # exact provider list the index publishes.
            for owner_id in range(N_OWNERS):
                response = sync_request(
                    fleet.addresses[owner_id % 2], VERB_QUERY, owner=owner_id
                )
                assert response["providers"] == index.query(owner_id)

            supervisor_counters = fleet.fleet_stats()["supervisor"]["counters"]
            assert supervisor_counters["worker_deaths_total"] >= 1
            assert supervisor_counters["restarts_total"] >= 1

    def test_restart_happens_within_the_backoff_budget(self, snapshot_path):
        """Detect + restart must fit in health_interval + first backoff step
        (plus boot); the deadline below is ~20x that budget, so a pass means
        the mechanism works and a fail means it is wedged, not slow."""
        with make_supervisor(snapshot_path, n_shards=1) as fleet:
            fleet.start(monitor=True)
            pid = fleet.worker_states()[0]["pid"]
            os.kill(pid, signal.SIGKILL)
            t0 = time.monotonic()
            wait_until(
                lambda: fleet.worker_states()[0]["state"] == "healthy"
                and fleet.worker_states()[0]["pid"] != pid,
                deadline_s=10.0,
                what="restarted worker to report healthy",
            )
            recovery_s = time.monotonic() - t0
            # Generous absolute bound: interval (0.05) + backoff (0.05) +
            # process boot; anything near 10 s means supervision is broken.
            assert recovery_s < 8.0


class TestGiveUp:
    def test_unbootable_worker_fails_without_sinking_the_fleet(
        self, snapshot_path, tmp_path
    ):
        # Private snapshot copy: this test deletes it mid-flight.
        doomed_snapshot = str(tmp_path / "doomed.npz")
        save_snapshot(fleet_index(), doomed_snapshot)
        with make_supervisor(
            doomed_snapshot, n_shards=2, max_restarts=2, backoff_base_s=0.02
        ) as fleet:
            fleet.start(monitor=False)
            os.unlink(doomed_snapshot)  # every future boot now crashes
            os.kill(fleet.worker_states()[0]["pid"], signal.SIGKILL)

            events = []
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                events.extend(fleet.check_once())
                if any(kind == "gave-up" for kind, _ in events):
                    break
                time.sleep(0.02)

            kinds = [kind for kind, shard in events if shard == 0]
            assert "died" in kinds
            assert kinds.count("restarted") == 2  # max_restarts exhausted
            assert kinds[-1] == "gave-up"
            assert fleet.worker_states()[0]["state"] == "failed"
            counters = fleet.metrics.snapshot()["counters"]
            assert counters["workers_given_up"] == 1

            # The healthy shard is unaffected: shard 1 owners still resolve.
            response = sync_request(fleet.addresses[1], VERB_QUERY, owner=1)
            assert response["providers"] == fleet_index().query(1)
            # A failed worker stays down -- further rounds take no action.
            assert fleet.check_once() == []


class TestFleetStats:
    def test_aggregate_counters_sum_over_workers(self, snapshot_path):
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            for owner_id in range(N_OWNERS):
                sync_request(fleet.addresses[owner_id % 2], VERB_QUERY, owner=owner_id)
            stats = fleet.fleet_stats()
            assert stats["n_shards"] == 2
            assert set(stats["workers"]) == {0, 1}
            per_worker = [
                w["stats"]["counters"]["queries_served"]
                for w in stats["workers"].values()
            ]
            assert sum(per_worker) == N_OWNERS
            assert stats["aggregate_counters"]["queries_served"] == N_OWNERS
            # Each fleet_stats call is itself a stats request per worker.
            assert stats["aggregate_counters"]["requests_total"] >= N_OWNERS + 2

    def test_unreachable_worker_reports_none_stats(self, snapshot_path):
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            os.kill(fleet.worker_states()[0]["pid"], signal.SIGKILL)
            wait_until(
                lambda: not sync_alive(fleet.addresses[0]),
                deadline_s=5.0,
                what="killed worker's listener to vanish",
            )
            stats = fleet.fleet_stats()
            assert stats["workers"][0]["stats"] is None
            assert stats["workers"][1]["stats"] is not None


def sync_alive(addr) -> bool:
    try:
        sync_request(addr, VERB_STATS, timeout_s=0.3)
        return True
    except Exception:  # noqa: BLE001 -- any failure means not serving
        return False


def fleet_index_v2() -> PostingsIndex:
    """Epoch-1 truth: the complement of epoch 0, so no owner row agrees."""
    return PostingsIndex.from_dense(1 - fleet_index().to_dense())


@pytest.fixture
def epoch1_snapshot(tmp_path):
    path = str(tmp_path / "epoch1.npz")
    save_snapshot(fleet_index_v2(), path, format_version=3, epoch=1)
    return path


class TestRollout:
    """Rolling hot-swap of a live fleet onto a new snapshot epoch."""

    def test_rollout_moves_every_shard_to_the_new_epoch(
        self, snapshot_path, epoch1_snapshot
    ):
        v2 = fleet_index_v2()
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            events = fleet.rollout(epoch1_snapshot, settle_timeout_s=15.0)
            assert events == [("rolled", 0), ("rolled", 1)]
            assert fleet.snapshot_path == epoch1_snapshot
            for shard, addr in enumerate(fleet.addresses):
                info = sync_request(addr, VERB_INFO)
                assert info["epoch"] == 1
                assert info["snapshot_path"] == epoch1_snapshot
            for owner_id in range(N_OWNERS):
                response = sync_request(
                    fleet.addresses[owner_id % 2], VERB_QUERY, owner=owner_id
                )
                assert response["providers"] == v2.query(owner_id)
                assert response["epoch"] == 1
            counters = fleet.metrics.snapshot()["counters"]
            assert counters["shard_reloads_total"] == 2
            assert counters["rollouts_total"] == 1
            # No process was restarted: the swap was in-place, listener up.
            assert all(
                w["restarts"] == 0 for w in fleet.worker_states().values()
            )

    def test_rollout_survives_worker_restarts(
        self, snapshot_path, epoch1_snapshot
    ):
        """A shard whose process is already gone when the rollout reaches it
        is restarted by the supervision the rollout drives -- and because the
        spec is repointed before the reload request, the fresh process boots
        straight into the new epoch."""
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            os.kill(fleet.worker_states()[1]["pid"], signal.SIGKILL)
            events = fleet.rollout(epoch1_snapshot, settle_timeout_s=15.0)
            assert ("rolled", 0) in events and ("rolled", 1) in events
            assert fleet.worker_states()[1]["restarts"] >= 1
            for addr in fleet.addresses:
                assert sync_request(addr, VERB_INFO)["epoch"] == 1

    def test_sigkill_mid_rollout_loses_no_queries(
        self, snapshot_path, epoch1_snapshot
    ):
        """Kill a shard while a rollout and a load run are both in flight.

        Required outcome: the rollout still lands every shard on epoch 1,
        the supervisor restarts the victim (on the new snapshot), and the
        retrying load generator reports zero failed queries -- reloads and
        restarts cost latency, never answers.
        """
        v2 = fleet_index_v2()
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=True)
            addresses = [tuple(a) for a in fleet.addresses]
            victim_pid = fleet.worker_states()[1]["pid"]

            killed = threading.Event()

            def assassin():
                os.kill(victim_pid, signal.SIGKILL)
                killed.set()

            rollout_events = []

            def roll():
                rollout_events.extend(
                    fleet.rollout(epoch1_snapshot, settle_timeout_s=30.0)
                )

            roller = threading.Thread(target=roll)
            timer = threading.Timer(0.1, assassin)
            roller.start()
            timer.start()
            try:
                report = run_load_sync(
                    lambda: LocatorClient(
                        servers=addresses,
                        retry=RetryPolicy(
                            max_retries=8,
                            timeout_s=1.0,
                            base_delay_s=0.05,
                            max_delay_s=0.5,
                        ),
                        cache_size=0,
                    ),
                    owner_ids=list(range(N_OWNERS)),
                    n_workers=4,
                    # Long enough that the 0.1 s strike lands mid-load even
                    # on an idle host, where 300 per worker can finish first.
                    requests_per_worker=1200,
                )
            finally:
                timer.cancel()
                roller.join(timeout=60.0)

            assert killed.is_set(), "assassin never fired; test proves nothing"
            assert not roller.is_alive(), "rollout never finished"
            assert report.errors == 0, f"{report.errors} queries never succeeded"
            assert ("rolled", 0) in rollout_events
            assert ("rolled", 1) in rollout_events

            wait_until(
                lambda: all(
                    w["state"] == "healthy"
                    for w in fleet.worker_states().values()
                ),
                deadline_s=10.0,
                what="the whole fleet to be healthy post-rollout",
            )
            # Every shard settled on the new epoch, every owner answers the
            # new truth: zero lost *and* zero stale.
            for owner_id in range(N_OWNERS):
                response = sync_request(
                    addresses[owner_id % 2], VERB_QUERY, owner=owner_id
                )
                assert response["epoch"] == 1
                assert response["providers"] == v2.query(owner_id)

    def test_unsettleable_rollout_aborts_and_leaves_the_rest_alone(
        self, snapshot_path, tmp_path
    ):
        doomed = str(tmp_path / "doomed.npz")
        save_snapshot(fleet_index_v2(), doomed, format_version=3, epoch=1)
        # Corrupt the postings payload: the epoch in the meta block stays
        # readable (the rollout can compute its target), but every worker's
        # reload fails the snapshot checksum and refuses the swap.
        with np.load(doomed) as archive:
            arrays = dict(archive)
        arrays["indices"] = arrays["indices"].copy()
        arrays["indices"][0] += 1
        np.savez(doomed, **arrays)
        with make_supervisor(snapshot_path, n_shards=2) as fleet:
            fleet.start(monitor=False)
            events = fleet.rollout(doomed, settle_timeout_s=0.5)
            assert events[-1] == ("rollout-stuck", 0)
            assert ("rolled", 1) not in events
            assert fleet.snapshot_path == snapshot_path  # not committed
            counters = fleet.metrics.snapshot()["counters"]
            assert counters["rollouts_aborted_total"] == 1
            # Both shards keep serving the old epoch.
            for addr in fleet.addresses:
                assert sync_request(addr, VERB_INFO)["epoch"] == 0


class TestReadReplicas:
    def test_replica_sets_epochs_and_manual_promotion(self, snapshot_path):
        from repro.serving.snapshot import snapshot_epoch

        index = fleet_index()
        base_epoch = snapshot_epoch(snapshot_path)
        with make_supervisor(snapshot_path, n_shards=2, read_replicas=1) as fleet:
            fleet.start(monitor=False)
            sets = fleet.replica_sets
            assert len(sets) == 2 and all(len(rs) == 2 for rs in sets)
            assert [rs[0] for rs in sets] == fleet.addresses
            roles = [w["role"] for w in fleet.worker_states().values()]
            assert sorted(roles) == ["primary", "primary", "replica", "replica"]
            stats = fleet.fleet_stats()
            assert stats["read_replicas"] == 1
            assert stats["epochs"] == {0: base_epoch, 1: base_epoch}
            probed = [w for w in stats["workers"].values() if w["stats"]]
            assert all(w["epoch"] == base_epoch for w in probed)
            # Replicas answer the same rows as their primaries.
            for owner_id in range(N_OWNERS):
                replica_addr = sets[owner_id % 2][1]
                response = sync_request(replica_addr, VERB_QUERY, owner=owner_id)
                assert response["providers"] == index.query(owner_id)

            old_primary = fleet.addresses[0]
            old_replica = sets[0][1]
            kind, detail = fleet.promote(0)
            assert kind == "promoted" and detail[0] == 0
            assert fleet.addresses[0] == old_replica
            assert fleet.replica_sets[0] == [old_replica, old_primary]
            # The promoted worker serves shard 0's owners.
            response = sync_request(fleet.addresses[0], VERB_QUERY, owner=0)
            assert response["providers"] == index.query(0)

    def test_gave_up_primary_auto_promotes_a_replica(self, snapshot_path):
        index = fleet_index()
        with make_supervisor(
            snapshot_path, n_shards=1, read_replicas=1, max_restarts=0
        ) as fleet:
            fleet.start(monitor=False)
            doomed = fleet.addresses[0]
            states = fleet.worker_states()
            pid = next(
                w["pid"] for w in states.values() if w["role"] == "primary"
            )
            os.kill(pid, signal.SIGKILL)
            seen = []

            def promoted():
                seen.extend(fleet.check_once())
                return any(e[0] == "promoted" for e in seen)

            wait_until(promoted, deadline_s=10.0, what="automatic promotion")
            assert ("gave-up", 0) in seen
            assert fleet.addresses[0] != doomed
            for owner_id in range(N_OWNERS):
                response = sync_request(
                    fleet.addresses[0], VERB_QUERY, owner=owner_id
                )
                assert response["providers"] == index.query(owner_id)


class TestPromotionMidRollout:
    """Promotion, rollout and restart composed on one shard at once."""

    def test_replica_promoted_between_reload_and_settle(
        self, snapshot_path, epoch1_snapshot, monkeypatch
    ):
        """Shard 0's replica is promoted after both its workers reloaded but
        before the shard settled, and the demoted ex-primary is SIGKILLed:
        the rollout must wait for the supervisor to respawn it (on the new
        snapshot), and read-your-epoch clients must notice none of it."""
        # The two epochs' matrices are complements, so a row names its epoch.
        truths = [fleet_index(), fleet_index_v2()]
        with make_supervisor(snapshot_path, n_shards=2, read_replicas=1) as fleet:
            fleet.start(monitor=True)
            replica_sets = fleet.replica_sets
            ex_primary_addr, promoted_addr = replica_sets[0]
            ex_primary_pid = fleet.worker_states()[0]["pid"]

            stop, errors = threading.Event(), []
            seen = [[] for _ in replica_sets]

            async def read_loop():
                # One client across both shards: shard 0 reaches epoch 1
                # while shard 1 still answers epoch 0, which its per-shard
                # read-your-epoch mark must accept.
                client = LocatorClient(
                    servers=replica_sets,
                    retry=RetryPolicy(max_retries=1, timeout_s=1.0),
                    cache_size=0,
                )
                try:
                    while not stop.is_set():
                        for owner_id in range(N_OWNERS):
                            shard = owner_id % 2
                            try:
                                providers = await client.query(owner_id)
                            except Exception as exc:  # noqa: BLE001 -- counted below
                                errors.append((owner_id, exc))
                                continue
                            seen[shard].append(
                                [t.query(owner_id) for t in truths].index(providers)
                            )
                finally:
                    await client.close()

            fired = threading.Event()

            def promote_at_first_settle_probe(addr, verb, **kwargs):
                # ``info`` is sent only by the settle loop, so the first one
                # falls between shard 0's reloads and its settling.
                if verb == VERB_INFO and not fired.is_set():
                    fired.set()
                    assert fleet.promote(0) == ("promoted", (0, 1))
                    os.kill(ex_primary_pid, signal.SIGKILL)
                    wait_until(
                        lambda: not sync_alive(ex_primary_addr),
                        deadline_s=5.0,
                        what="the demoted ex-primary's listener to vanish",
                    )
                return sync_request(addr, verb, **kwargs)

            monkeypatch.setattr(
                fleet_module, "sync_request", promote_at_first_settle_probe
            )
            reader = threading.Thread(target=lambda: asyncio.run(read_loop()))
            reader.start()
            try:
                wait_until(lambda: all(seen), 10.0, "reads at epoch 0 on both shards")
                events = fleet.rollout(epoch1_snapshot, settle_timeout_s=30.0)
            finally:
                stop.set()
                reader.join(timeout=30.0)
            assert not reader.is_alive()
            assert fired.is_set(), "the settle probe never fired the promotion"
            assert events == [("rolled", 0), ("rolled", 1)]

            assert fleet.replica_sets[0] == [promoted_addr, ex_primary_addr]
            for addrs in fleet.replica_sets:
                for addr in addrs:
                    assert sync_request(addr, VERB_INFO)["epoch"] == 1
            # The ex-primary is a fresh process that booted on the new
            # snapshot -- it never served epoch 0 and never took a reload.
            respawned = fleet.worker_states()[0]
            assert respawned["role"] == "replica"
            assert respawned["restarts"] == 1
            assert respawned["pid"] != ex_primary_pid
            info = sync_request(ex_primary_addr, VERB_INFO)
            assert info["snapshot_path"] == epoch1_snapshot
            counters = sync_request(ex_primary_addr, VERB_STATS)["stats"]["counters"]
            assert counters.get("reloads_total", 0) == 0

            assert errors == []
            for epochs in seen:
                assert epochs == sorted(epochs), "a read went back an epoch"
                assert epochs[0] == 0 and epochs[-1] == 1

    def test_fleet_stats_tally_is_exact_over_every_process(self, snapshot_path):
        """Every worker owns its address, so ``fleet_stats`` reaches each
        process exactly once: the aggregate is a count, not a sample."""
        with make_supervisor(snapshot_path, n_shards=2, read_replicas=1) as fleet:
            fleet.start(monitor=False)
            sent = {}
            for shard, addrs in enumerate(fleet.replica_sets):
                for replica, addr in enumerate(addrs):
                    sent[tuple(addr)] = 3 + 2 * shard + replica  # all distinct
                    for _ in range(sent[tuple(addr)]):
                        sync_request(addr, VERB_QUERY, owner=shard)
            stats = fleet.fleet_stats()
            assert len(stats["workers"]) == 4
            assert {
                tuple(w["address"]): w["stats"]["counters"]["queries_served"]
                for w in stats["workers"].values()
            } == sent
            assert stats["aggregate_counters"]["queries_served"] == sum(sent.values())
