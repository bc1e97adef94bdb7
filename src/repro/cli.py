"""Command-line interface: ``python -m repro <command>``.

Gives the library a usable operational surface:

* ``generate``  -- synthesize an information network (TREC-like or Zipf)
  and write it to a JSON dataset file;
* ``construct`` -- run ConstructPPI over a dataset and write the published
  index (plus a construction report) to disk;
* ``secure-construct`` -- run the MPC construction (SecSumShare + GMW
  β-calculation) over a dataset, with Beaver triples from the trusted
  dealer or the dealerless offline factory, and report per-phase costs;
* ``query``     -- QueryPPI against a stored index;
* ``attack``    -- run the primary and common-identity attacks against a
  stored index/dataset pair and report attacker confidence;
* ``audit``     -- per-owner privacy audit of a stored index against the
  dataset's ground truth;
* ``inspect``   -- summarize a stored index (size, broadcast rows, cost);
* ``serve``     -- host a stored index as a live TCP locator service
  (one shard of an owner-sharded fleet);
* ``provider``  -- run one provider's AuthSearch endpoint over a dataset;
* ``loadgen``   -- drive a closed-loop load test against a running fleet
  and print QPS / p50 / p95 / p99 / error-rate;
* ``snapshot``  -- build, inspect or diff a binary index snapshot (the
  fleet's boot format, epoch-stamped from v3 on);
* ``supervisor``-- run a process-per-shard server fleet from a snapshot,
  with health checks and supervised restarts;
* ``update``    -- live-update tooling: init/append a delta log, seal it
  into a segment (``apply``), compact segments into a fresh epoch;
* ``fleet``     -- fleet operations against running servers, e.g.
  ``fleet rollout`` for a rolling hot-swap onto a new snapshot;
* ``redteam``   -- the adversarial lab: ``run`` a full observation
  campaign against a self-booted live fleet (epochs, churn, sticky or
  naive republication, traffic shapes, reload storms), ``replay`` the
  attackers over a recorded observation log, ``report`` a saved privacy
  report.

All randomness is seedable for reproducible pipelines.  Installed as the
``eppi`` console script (``pip install -e .``), or run as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional, Sequence

import numpy as np

from repro.attacks.adversary import AdversaryKnowledge
from repro.attacks.common_identity import common_identity_attack
from repro.attacks.primary import primary_attack_confidences
from repro.core.construction import construct_epsilon_ppi
from repro.core.errors import ReproError
from repro.core.index import PPIIndex
from repro.core.model import InformationNetwork
from repro.core.policies import (
    BasicPolicy,
    BetaPolicy,
    ChernoffPolicy,
    IncrementedExpectationPolicy,
)
from repro.analysis.audit import audit_index
from repro.core.privacy import classify_degree
from repro.datasets.synthetic import uniform_epsilons, zipf_matrix
from repro.datasets.trec_like import TrecLikeConfig, build_trec_like_network
from repro.protocol.construction import run_distributed_construction

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # Domain and filesystem failures are operator errors, not crashes:
        # one line on stderr and a conventional exit code.
        print(f"error: {exc}", file=sys.stderr)
        return 1


# -- dataset file format ---------------------------------------------------------


def save_dataset(path: str, network: InformationNetwork) -> None:
    matrix = network.membership_matrix()
    payload = {
        "n_providers": network.n_providers,
        "provider_names": [p.name for p in network.providers],
        "owners": [
            {"name": o.name, "epsilon": o.epsilon} for o in network.owners
        ],
        "memberships": sorted(matrix.iter_cells()),
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_dataset(path: str) -> InformationNetwork:
    with open(path) as f:
        payload = json.load(f)
    network = InformationNetwork(
        payload["n_providers"], provider_names=payload["provider_names"]
    )
    owners = [
        network.register_owner(o["name"], o["epsilon"]) for o in payload["owners"]
    ]
    for pid, oid in payload["memberships"]:
        network.delegate(owners[oid], pid)
    return network


def _policy_from_args(args: argparse.Namespace) -> BetaPolicy:
    if args.policy == "basic":
        return BasicPolicy()
    if args.policy == "inc-exp":
        return IncrementedExpectationPolicy(delta=args.delta)
    return ChernoffPolicy(gamma=args.gamma)


# -- commands ----------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "trec":
        network = build_trec_like_network(
            TrecLikeConfig(n_providers=args.providers, n_owners=args.owners),
            seed=args.seed,
        )
    else:
        rng = np.random.default_rng(args.seed)
        matrix = zipf_matrix(args.providers, args.owners, rng)
        epsilons = uniform_epsilons(args.owners, rng)
        network = InformationNetwork(args.providers)
        owners = [
            network.register_owner(f"owner-{j:06d}", float(epsilons[j]))
            for j in range(args.owners)
        ]
        for pid, oid in matrix.iter_cells():
            network.delegate(owners[oid], pid)
    save_dataset(args.output, network)
    matrix = network.membership_matrix()
    print(
        f"wrote {args.output}: {network.n_providers} providers, "
        f"{network.n_owners} owners, {matrix.total_memberships} memberships"
    )
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    network = load_dataset(args.dataset)
    policy = _policy_from_args(args)
    result = construct_epsilon_ppi(
        network, policy, np.random.default_rng(args.seed)
    )
    with open(args.output, "w") as f:
        f.write(result.index.to_json())
    stats = result.index.stats()
    print(f"wrote {args.output}")
    print(f"  policy: {policy.name}")
    print(f"  success ratio: {result.report.success_ratio:.4f}")
    print(f"  avg published list size: {stats.avg_result_size:.1f}")
    print(f"  broadcast owners: {stats.broadcast_owners}")
    print(f"  mixing: lambda={result.mixing.lambda_:.4f} xi={result.mixing.xi:.2f}")
    return 0


def cmd_secure_construct(args: argparse.Namespace) -> int:
    network = load_dataset(args.dataset)
    policy = _policy_from_args(args)
    dense = network.membership_matrix().to_dense()
    provider_bits = [[int(v) for v in row] for row in dense]
    epsilons = [float(e) for e in network.epsilons()]
    result = run_distributed_construction(
        provider_bits,
        epsilons,
        policy,
        c=args.c,
        rng=random.Random(args.seed),
        triple_source=args.triple_source,
        offline_producers=args.producers,
    )
    secure = result.secure_result
    print(
        f"secure construction: {len(provider_bits)} providers, "
        f"{len(epsilons)} identities, c={args.c}, "
        f"triples={args.triple_source}"
    )
    print(f"  policy: {policy.name}")
    print(f"  lambda={secure.lambda_:.4f} xi={secure.xi:.2f}")
    print(
        f"  n_common={secure.n_common} "
        f"n_natural_decoys={secure.n_natural_decoys} "
        f"selected={sum(secure.publish_as_one)}"
    )
    print(f"  mean beta: {float(np.mean(result.betas)):.4f}")
    print(f"  simulated execution time: {result.execution_time_s:.3f}s")
    phases = getattr(secure, "phases", None)
    if phases is not None:
        print("  per-phase accounting (real wall-clock, offline pipeline):")
        for name in ("setup", "offline", "online"):
            stats = getattr(phases, name)
            print(
                f"    {name:<8} {stats.bytes_sent:>12.0f} B "
                f"{stats.rounds:>6} rounds  "
                f"wall {stats.wall_time_s * 1e3:8.1f} ms  "
                f"hidden {stats.hidden_time_s * 1e3:8.1f} ms"
            )
        print(
            f"    triples  {phases.triple_words_consumed} words consumed / "
            f"{phases.triple_words_produced} produced, "
            f"stall {phases.stall_time_s * 1e3:.1f} ms, "
            f"utilization {phases.utilization:.3f}"
        )
    if args.output:
        payload = {
            "betas": [float(b) for b in result.betas],
            "publish_as_one": [int(b) for b in secure.publish_as_one],
            "lambda": secure.lambda_,
            "xi": secure.xi,
            "execution_time_s": result.execution_time_s,
        }
        if phases is not None:
            payload["phases"] = phases.as_dict()
        with open(args.output, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.output}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with open(args.index) as f:
        index = PPIIndex.from_json(f.read())
    try:
        providers = index.query_by_name(args.owner)
    except Exception:
        providers = index.query(int(args.owner))
    print(f"{len(providers)} candidate providers:")
    print(" ".join(str(p) for p in providers))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    network = load_dataset(args.dataset)
    with open(args.index) as f:
        index = PPIIndex.from_json(f.read())
    matrix = network.membership_matrix()
    knowledge = AdversaryKnowledge(published=np.asarray(index.matrix))
    epsilons = network.epsilons()

    conf = primary_attack_confidences(matrix, knowledge)
    degree = classify_degree(conf, epsilons, required_fraction=args.required_fraction)
    print("primary attack:")
    print(f"  mean confidence: {conf.mean():.4f}  max: {conf.max():.4f}")
    print(f"  degree: {degree.value}")

    common = common_identity_attack(
        matrix, knowledge, np.random.default_rng(args.seed)
    )
    print("common-identity attack:")
    if common.attacked:
        print(f"  claimed commons: {len(common.claimed_common)}")
        print(f"  identification confidence: {common.identification_confidence:.4f}")
        print(f"  membership confidence: {common.membership_confidence:.4f}")
    else:
        print("  no identities above the commonness threshold")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    network = load_dataset(args.dataset)
    with open(args.index) as f:
        index = PPIIndex.from_json(f.read())
    matrix = network.membership_matrix()
    audit = audit_index(
        matrix,
        np.asarray(index.matrix),
        network.epsilons(),
        owner_names=[o.name for o in network.owners],
    )
    print(f"success ratio: {audit.success_ratio:.4f}")
    print(f"broadcast owners: {audit.broadcast_count}")
    print(f"worst violation (eps - fp): {audit.worst_violation:.4f}")
    violators = audit.violators()
    print(f"violators: {len(violators)}")
    for o in violators[: args.limit]:
        print(
            f"  {o.name}: eps={o.epsilon:.2f} fp={o.false_positive_rate:.2f} "
            f"freq={o.true_frequency} published={o.published_size}"
        )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    with open(args.index) as f:
        index = PPIIndex.from_json(f.read())
    stats = index.stats()
    print(f"providers: {stats.n_providers}")
    print(f"owners: {stats.n_owners}")
    print(f"published positives: {stats.published_positives}")
    print(f"avg result size: {stats.avg_result_size:.2f}")
    print(f"broadcast owners: {stats.broadcast_owners}")
    return 0


# -- serving commands --------------------------------------------------------


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"address must be host:port, got {text!r}"
        )
    return host, int(port)


def _parse_provider_address(text: str) -> tuple[int, tuple[str, int]]:
    pid, _, addr = text.partition("=")
    if not pid.isdigit() or not addr:
        raise argparse.ArgumentTypeError(
            f"provider address must be <id>=host:port, got {text!r}"
        )
    return int(pid), _parse_address(addr)


def _run_node_forever(node) -> int:
    import asyncio

    async def _main() -> None:
        await node.start()
        print(f"{node.role} listening on {node.host}:{node.port}", flush=True)
        try:
            await node.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print(f"\n{node.role}: shutting down")
    except OSError as exc:
        print(f"{node.role}: cannot listen on {node.host}:{node.port}: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _load_index_arg(args: argparse.Namespace):
    """Load ``(index, epoch)`` from ``--index`` (JSON) or ``--snapshot``.

    A snapshot boots as a CSR :class:`PostingsIndex` (mmap'd from v2+).  A
    JSON index is dense (the server converts it once) and has no epoch (0).
    """
    if getattr(args, "snapshot", None):
        from repro.serving.snapshot import load_serving_state

        return load_serving_state(args.snapshot)
    with open(args.index) as f:
        return PPIIndex.from_json(f.read()), 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import PPIServer, ShardSpec

    index, epoch = _load_index_arg(args)
    try:
        server = PPIServer(
            index,
            shard=ShardSpec(args.shard, args.shards),
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            snapshot_path=getattr(args, "snapshot", None),
            epoch=epoch,
        )
    except ValueError as exc:  # e.g. --shard outside 0..--shards-1
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"serving shard {args.shard}/{args.shards} of index "
        f"({index.n_providers} providers, {index.n_owners} owners, "
        f"epoch {epoch})"
    )
    return _run_node_forever(server)


def cmd_provider(args: argparse.Namespace) -> int:
    from repro.core.authsearch import AccessControl
    from repro.serving import ProviderEndpoint

    network = load_dataset(args.dataset)
    if not 0 <= args.provider_id < network.n_providers:
        print(
            f"provider id {args.provider_id} out of range "
            f"(dataset has {network.n_providers} providers)",
            file=sys.stderr,
        )
        return 2
    endpoint = ProviderEndpoint(
        network.providers[args.provider_id],
        AccessControl(trusted=set(args.trust)),
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
    )
    return _run_node_forever(endpoint)


def cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.serving.snapshot import inspect_snapshot, save_snapshot

    if args.snapshot_command == "diff":
        from repro.updates import diff_snapshots

        diff = diff_snapshots(args.a, args.b)
        for side in ("a", "b"):
            meta = diff[side]
            print(
                f"{side}: {meta['path']} (v{meta['format_version']}, "
                f"epoch {meta['epoch']}, {meta['n_providers']} providers, "
                f"{meta['n_owners']} owners, nnz {meta['nnz']})"
            )
        print(f"epoch delta: {diff['epoch_delta']:+d}")
        print(f"owners added: {len(diff['owners_added'])}")
        print(f"owners removed: {len(diff['owners_removed'])}")
        print(
            f"owners changed: {diff['owners_changed']} "
            f"(+{diff['bits_added']} / -{diff['bits_removed']} bits)"
        )
        for row in diff["top_churn"]:
            print(
                f"  {row['label']}: +{row['bits_added']} -{row['bits_removed']}"
            )
        return 0
    if args.snapshot_command == "build":
        with open(args.index) as f:
            index = PPIIndex.from_json(f.read())
        version = {"v1": 1, "v2": 2, "v3": 3, "v4": 4}[args.format]
        info = save_snapshot(
            index, args.output, format_version=version, epoch=args.epoch
        )
        print(f"wrote {args.output}")
    else:
        info = inspect_snapshot(args.snapshot)
    for key, value in info.items():
        if key == "density":
            print(f"  {key}: {value:.4f}")
        else:
            print(f"  {key}: {value}")
    return 0 if info["checksum_ok"] else 1


def _parse_id_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ids, got {text!r}"
        ) from None


def cmd_update(args: argparse.Namespace) -> int:
    from repro.updates import DeltaLog, compact_snapshot, seal_segment

    if args.update_command == "init":
        log = DeltaLog.create(args.log, n_providers=args.providers)
        log.close()
        print(f"created {args.log} ({args.providers} providers)")
        return 0
    if args.update_command == "append":
        with DeltaLog.open(args.log) as log:
            if log.repaired_bytes:
                print(f"repaired torn tail: dropped {log.repaired_bytes} bytes")
            if args.op == "upsert":
                seq = log.upsert(
                    args.owner, args.providers or [], args.beta, name=args.name
                )
            elif args.op == "remove":
                seq = log.remove(args.owner)
            else:
                seq = log.flip(
                    args.owner,
                    set_providers=args.set or [],
                    clear_providers=args.clear or [],
                    beta=args.beta,
                )
            log.sync()
        print(f"appended seq {seq} ({args.op} owner {args.owner})")
        return 0
    if args.update_command == "apply":
        from repro.serving.snapshot import snapshot_epoch

        log = DeltaLog.open(args.log)
        base_epoch = snapshot_epoch(args.base)
        summary = seal_segment(log, args.output, base_epoch=base_epoch)
        print(f"wrote {args.output}")
        for key in (
            "n_entries",
            "tombstones",
            "published_positives",
            "base_epoch",
            "file_bytes",
        ):
            print(f"  {key}: {summary[key]}")
        return 0
    # compact
    from repro.updates import load_segment

    # Drift triple from the segments the merge then folds (each read once)
    # -- the same accounting ``Compactor.run_once`` reports, so operators
    # see what an incremental β refresh would be asked to re-evaluate.
    ops_applied = 0
    owners_touched = 0
    dirty: set = set()
    segments = [load_segment(path) for path in args.segment]
    for segment in segments:
        ops_applied += segment.n_ops
        owners_touched += len(segment)
        dirty.update(segment.owners.tolist())
    summary = compact_snapshot(args.base, segments, args.output)
    out = args.output or args.base
    print(f"wrote {out} (epoch {summary['epoch']})")
    print(f"  consumed segments: {len(summary['consumed_segments'])}")
    print(f"  overlaid owners: {summary['overlaid_owners']}")
    print(f"  n_owners: {summary['n_owners']}")
    print(f"  ops applied: {ops_applied}")
    print(f"  owners touched: {owners_touched}")
    print(f"  identities dirtied: {len(dirty)}")
    if args.delete_segments:
        for path in summary["consumed_segments"]:
            os.unlink(path)
        print(f"  deleted {len(summary['consumed_segments'])} segment file(s)")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Client-driven fleet operations against explicitly-listed servers.

    ``rollout``: the in-process :meth:`FleetSupervisor.rollout` does this
    for a fleet it owns; this command is the remote-operator form -- it
    speaks the same ``reload`` verb to each listed server in shard order,
    waiting for each to settle on the snapshot's epoch before touching the
    next.  ``promote``: sends ``repl-promote`` to a replica server, which
    detaches from its leader, folds every pending segment, and answers as
    a primary from then on.
    """
    import time

    if args.fleet_command == "promote":
        return _cmd_fleet_promote(args)

    from repro.serving.fleet import sync_request
    from repro.serving.protocol import VERB_INFO, VERB_RELOAD
    from repro.serving.snapshot import snapshot_epoch

    target_epoch = snapshot_epoch(args.snapshot)
    for shard, addr in enumerate(args.server):
        try:
            sync_request(
                addr, VERB_RELOAD, timeout_s=args.timeout, snapshot=args.snapshot
            )
        except Exception as exc:  # noqa: BLE001 -- settle loop decides
            print(f"shard {shard} ({addr[0]}:{addr[1]}): reload request failed: {exc}")
        deadline = time.monotonic() + args.settle_timeout
        settled = False
        while time.monotonic() < deadline:
            try:
                info = sync_request(addr, VERB_INFO, timeout_s=args.timeout)
                if info.get("epoch") == target_epoch:
                    settled = True
                    break
            except Exception:  # noqa: BLE001 -- worker mid-restart
                pass
            time.sleep(0.05)
        if not settled:
            print(
                f"shard {shard} ({addr[0]}:{addr[1]}) stuck below epoch "
                f"{target_epoch}; aborting rollout",
                file=sys.stderr,
            )
            return 1
        print(f"shard {shard} ({addr[0]}:{addr[1]}): epoch {target_epoch}")
    print(f"rollout complete: {len(args.server)} shard(s) at epoch {target_epoch}")
    return 0


def _cmd_fleet_promote(args: argparse.Namespace) -> int:
    from repro.replication import VERB_REPL_PROMOTE
    from repro.serving.fleet import sync_request

    addr = args.server
    try:
        status = sync_request(addr, VERB_REPL_PROMOTE, timeout_s=args.timeout)
    except Exception as exc:  # noqa: BLE001 -- operator-facing one-shot
        print(f"promote: {addr[0]}:{addr[1]}: {exc}", file=sys.stderr)
        return 1
    print(
        f"promoted {addr[0]}:{addr[1]}: role={status.get('role')} "
        f"epoch={status.get('epoch')} detached={status.get('detached')} "
        f"compactions={status.get('compactions')}"
    )
    return 0


def cmd_replica(args: argparse.Namespace) -> int:
    """Geo-replicated read tier: leader stream, follower serve, status."""
    if args.replica_command == "status":
        from repro.replication import VERB_REPL_STATUS
        from repro.serving.fleet import sync_request

        try:
            status = sync_request(
                args.server, VERB_REPL_STATUS, timeout_s=args.timeout
            )
        except Exception as exc:  # noqa: BLE001 -- operator-facing one-shot
            print(
                f"replica status: {args.server[0]}:{args.server[1]}: {exc}",
                file=sys.stderr,
            )
            return 1
        for key in (
            "role", "leader", "epoch", "leader_epoch", "epochs_behind",
            "overlay_depth", "segments_fetched", "bytes_fetched",
            "compactions", "swaps", "detached",
        ):
            print(f"{key:18} {status.get(key)}")
        return 0
    if args.replica_command == "stream":
        from repro.replication import SegmentStreamer

        streamer = SegmentStreamer(
            args.snapshot,
            args.segment_dir,
            archive_dir=args.archive_dir,
            host=args.host,
            port=args.port,
            chunk_bytes=args.chunk_bytes,
            retain_epochs=args.retain_epochs,
        )
        print(
            f"streaming epoch {streamer.epoch()} "
            f"({len(streamer.manifest())} retained segment(s))"
        )
        return _run_node_forever(streamer)
    return _cmd_replica_serve(args)


def _cmd_replica_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.replication import ReplicaApplier, ReplicaServer, ReplicationError
    from repro.serving import ShardSpec

    applier = ReplicaApplier(
        args.leader,
        args.base,
        segment_dir=args.segment_dir,
        compact_threshold=args.compact_threshold,
    )

    async def _main() -> int:
        server = ReplicaServer(
            applier,
            shard=ShardSpec(args.shard, args.shards),
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
        )
        await server.start()
        print(f"{server.role} listening on {server.host}:{server.port}", flush=True)
        print(
            f"replica: epoch {applier.epoch}, leader "
            f"{applier.leader[0]}:{applier.leader[1]}, poll {args.poll}s",
            flush=True,
        )
        serve = asyncio.create_task(server.serve_forever())
        tail = asyncio.create_task(applier.run(interval_s=args.poll))
        rc = 0
        try:
            done, _ = await asyncio.wait(
                {serve, tail}, return_when=asyncio.FIRST_COMPLETED
            )
            if tail in done and serve not in done and tail.exception() is None:
                # Detached (promoted over the wire): keep serving as primary.
                await serve
            for task in done:
                exc = task.exception()
                if isinstance(exc, ReplicationError):
                    print(f"replica: {exc}", file=sys.stderr)
                    rc = 1
                elif exc is not None:
                    raise exc
        except asyncio.CancelledError:
            pass
        finally:
            for task in (serve, tail):
                task.cancel()
            await server.stop()
            await applier.close()
        return rc

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nreplica: shutting down")
        return 0
    except OSError as exc:
        print(
            f"replica: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1


def cmd_supervisor(args: argparse.Namespace) -> int:
    import time

    from repro.serving.fleet import FleetSupervisor

    ports = None
    if args.base_port:
        ports = [args.base_port + i for i in range(args.shards)]
    try:
        supervisor = FleetSupervisor(
            args.snapshot,
            n_shards=args.shards,
            host=args.host,
            ports=ports,
            max_inflight=args.max_inflight,
            health_interval_s=args.health_interval,
            health_timeout_s=args.health_timeout,
            max_restarts=args.max_restarts,
            read_replicas=args.read_replicas,
        )
    except ValueError as exc:  # e.g. --shards 0
        print(f"supervisor: {exc}", file=sys.stderr)
        return 2
    try:
        supervisor.start(monitor=True)
    except (OSError, TimeoutError) as exc:
        print(f"supervisor: failed to start fleet: {exc}", file=sys.stderr)
        supervisor.stop()
        return 1
    # The "listening on" lines come first and stay machine-readable:
    # harnesses read one line per shard to learn the fleet's addresses.
    for shard_id, addr in enumerate(supervisor.addresses):
        print(f"shard {shard_id}/{args.shards} listening on {addr[0]}:{addr[1]}",
              flush=True)
    if args.read_replicas:
        for shard_id, addrs in enumerate(supervisor.replica_sets):
            for r, addr in enumerate(addrs[1:], start=1):
                print(f"replica {shard_id}.{r} listening on "
                      f"{addr[0]}:{addr[1]}", flush=True)
    for shard_id, epoch in sorted(supervisor.fleet_stats()["epochs"].items()):
        print(f"shard {shard_id} epoch {epoch}", flush=True)
    n_procs = args.shards * (1 + args.read_replicas)
    print(f"fleet: {args.shards} shard(s) x (1 primary + "
          f"{args.read_replicas} read replica(s)) = {n_procs} worker(s)",
          flush=True)
    deadline = None
    if args.duration is not None:
        deadline = time.monotonic() + args.duration
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(min(0.2, args.health_interval))
    except KeyboardInterrupt:
        print("\nsupervisor: shutting down fleet")
    finally:
        supervisor.stop()
    states = supervisor.metrics.snapshot()["counters"]
    print(f"supervisor: restarts={states.get('restarts_total', 0)} "
          f"health_checks={states.get('health_checks_total', 0)} "
          f"promotions={states.get('promotions_total', 0)}")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving import LocatorClient, RetryPolicy, run_load

    async def _main() -> int:
        client = LocatorClient(
            servers=args.server,
            providers=dict(args.provider or []),
            name=args.searcher,
            retry=RetryPolicy(
                max_retries=args.max_retries, timeout_s=args.timeout
            ),
            cache_size=args.cache_size,
            rng_seed=args.seed,
        )
        try:
            if args.owners is not None:
                owner_ids = list(range(args.owners))
            else:
                info = await client.info(args.server[0])
                owner_ids = list(range(int(info["n_owners"])))
            if args.mode == "search" and not client.providers:
                print(
                    "loadgen: search mode needs --provider <id>=host:port "
                    "for every reachable provider",
                    file=sys.stderr,
                )
                return 2
            tier_of = None
            if args.tiers:
                tier_of = {j: f"tier-{j % args.tiers}" for j in owner_ids}
            report = await run_load(
                client,
                owner_ids,
                n_workers=args.workers,
                requests_per_worker=args.requests,
                mode=args.mode,
                think_time_s=args.think_time,
                batch_size=args.batch_size,
                zipf_a=args.zipf_a,
                seed=args.seed,
                shape=args.shape,
                shape_period=args.shape_period,
                tier_of=tier_of,
            )
            print(report.format())
            stats = await client.stats(args.server[0])
            served = stats["counters"].get("queries_served", 0)
            print(f"server[0] queries_served  {served}")
            return 0
        finally:
            await client.close()

    return asyncio.run(_main())


def cmd_redteam(args: argparse.Namespace) -> int:
    from repro.redteam import (
        ObservationLog,
        PrivacyReport,
        Scenario,
        ScenarioRunner,
        load_truth_payload,
        run_attacks,
        truth_payload,
    )

    if args.redteam_command == "run":
        os.makedirs(args.out, exist_ok=True)
        snapshot_dir = os.path.join(args.out, "snapshots")
        os.makedirs(snapshot_dir, exist_ok=True)
        observation_path = os.path.join(args.out, "observations.obs")
        if os.path.exists(observation_path):
            os.unlink(observation_path)  # each run is a fresh campaign
        scenario = Scenario(
            n_providers=args.providers,
            n_owners=args.owners,
            epochs=args.epochs,
            churn=args.churn,
            sticky=not args.naive,
            seed=args.seed,
            n_shards=args.shards,
            workers=args.workers,
            requests_per_worker=args.requests,
            shape=args.shape,
            think_time_s=args.think_time,
            shape_period=args.shape_period,
            zipf_a=args.zipf_a,
            reload_storm=args.reload_storm,
            linkage_targets=args.linkage_targets,
        )
        outcome = ScenarioRunner(
            scenario, snapshot_dir, observation_path
        ).run()
        with open(os.path.join(args.out, "truth.json"), "w") as fh:
            json.dump(truth_payload(outcome), fh, indent=2)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(outcome.report.to_json())
        print(outcome.report.format())
        for epoch, load in enumerate(outcome.load_reports):
            p = load.latency_percentiles_ms()
            print(
                f"load epoch {epoch}: {load.total} requests, "
                f"{load.qps:.0f} req/s, p99 {p['p99']:.2f} ms"
            )
        print(f"artifacts in {args.out}")
        return 0

    if args.redteam_command == "replay":
        with open(args.truth) as fh:
            truth_by_epoch, tier_map, mode = load_truth_payload(json.load(fh))
        log = ObservationLog(args.observations)
        try:
            report = run_attacks(
                log,
                truth_by_epoch,
                tier_map,
                mode,
                linkage_targets=args.linkage_targets,
            )
        finally:
            log.close()
        print(report.format())
        if args.json_out:
            with open(args.json_out, "w") as fh:
                fh.write(report.to_json())
        return 0

    with open(args.report) as fh:
        print(PrivacyReport.from_dict(json.load(fh)).format())
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="e-PPI personalized privacy-preserving index"
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    g = sub.add_parser("generate", help="synthesize a dataset")
    g.add_argument("--kind", choices=["trec", "zipf"], default="trec")
    g.add_argument("--providers", type=int, default=100)
    g.add_argument("--owners", type=int, default=500)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("construct", help="build the e-PPI index")
    c.add_argument("--dataset", required=True)
    c.add_argument("--output", required=True)
    c.add_argument("--policy", choices=["basic", "inc-exp", "chernoff"],
                   default="chernoff")
    c.add_argument("--gamma", type=float, default=0.9)
    c.add_argument("--delta", type=float, default=0.02)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_construct)

    sc = sub.add_parser(
        "secure-construct",
        help="run the MPC construction (SecSum + GMW) over a dataset",
    )
    sc.add_argument("--dataset", required=True)
    sc.add_argument("--output", help="optional JSON report path")
    sc.add_argument("--c", type=int, default=3,
                    help="coordinator count (collusion tolerance)")
    sc.add_argument("--policy", choices=["basic", "inc-exp", "chernoff"],
                    default="chernoff")
    sc.add_argument("--gamma", type=float, default=0.9)
    sc.add_argument("--delta", type=float, default=0.02)
    sc.add_argument("--triple-source", choices=["dealer", "factory"],
                    default="factory",
                    help="Beaver triples: trusted dealer or dealerless "
                         "offline factory (pipelined with the online phase)")
    sc.add_argument("--producers", type=int, default=2,
                    help="offline producer threads (factory mode)")
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(func=cmd_secure_construct)

    q = sub.add_parser("query", help="QueryPPI against a stored index")
    q.add_argument("--index", required=True)
    q.add_argument("--owner", required=True, help="owner name or id")
    q.set_defaults(func=cmd_query)

    a = sub.add_parser("attack", help="attack a stored index")
    a.add_argument("--dataset", required=True)
    a.add_argument("--index", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--required-fraction", type=float, default=0.9)
    a.set_defaults(func=cmd_attack)

    au = sub.add_parser("audit", help="per-owner privacy audit")
    au.add_argument("--dataset", required=True)
    au.add_argument("--index", required=True)
    au.add_argument("--limit", type=int, default=10)
    au.set_defaults(func=cmd_audit)

    i = sub.add_parser("inspect", help="summarize a stored index")
    i.add_argument("--index", required=True)
    i.set_defaults(func=cmd_inspect)

    s = sub.add_parser("serve", help="host a stored index as a TCP locator service")
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--index", help="JSON index file")
    src.add_argument("--snapshot", help="binary index snapshot (see `eppi snapshot`)")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=7331)
    s.add_argument("--shard", type=int, default=0, help="this process's shard id")
    s.add_argument("--shards", type=int, default=1, help="total shard count")
    s.add_argument("--max-inflight", type=int, default=64,
                   help="backpressure bound on concurrently served requests")
    # Kept only for benchmarks/e2e/measure.py, which passes --protocol v2.
    s.add_argument("--protocol", choices=["v2"], default="v2", help=argparse.SUPPRESS)
    s.set_defaults(func=cmd_serve)

    p = sub.add_parser("provider", help="run one provider's AuthSearch endpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--provider-id", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks an ephemeral port (printed at startup)")
    p.add_argument("--trust", action="append", default=["searcher"],
                   help="searcher name to trust for all owners (repeatable)")
    p.add_argument("--max-inflight", type=int, default=64)
    p.set_defaults(func=cmd_provider)

    sn = sub.add_parser("snapshot",
                        help="build, inspect or diff a binary index snapshot")
    sn_sub = sn.add_subparsers(dest="snapshot_command", required=True)
    snb = sn_sub.add_parser("build", help="pack a JSON index into a snapshot")
    snb.add_argument("--index", required=True, help="JSON index file")
    snb.add_argument("--output", required=True, help="snapshot file to write")
    snb.add_argument("--format", choices=["v1", "v2", "v3", "v4"], default="v4",
                     help="v4 is CSR only, with provider ids at their natural "
                          "width; v3 adds packed bits beside the CSR form; v2 is "
                          "v3 without the epoch; v1 the legacy packed-bits-only "
                          "layout")
    snb.add_argument("--epoch", type=int, default=0,
                     help="publication epoch to stamp (v3/v4 only)")
    snb.set_defaults(func=cmd_snapshot)
    sni = sn_sub.add_parser("inspect", help="summarize + checksum a snapshot")
    sni.add_argument("--snapshot", required=True)
    sni.set_defaults(func=cmd_snapshot)
    snd = sn_sub.add_parser("diff", help="owners/bits/epoch delta of two snapshots")
    snd.add_argument("a", help="older snapshot")
    snd.add_argument("b", help="newer snapshot")
    snd.set_defaults(func=cmd_snapshot)
    sn.set_defaults(func=cmd_snapshot)

    up = sub.add_parser("update", help="live index updates: delta log -> segments")
    up_sub = up.add_subparsers(dest="update_command", required=True)
    upi = up_sub.add_parser("init", help="create an empty delta log")
    upi.add_argument("--log", required=True, help="delta log file to create")
    upi.add_argument("--providers", type=int, required=True,
                     help="provider-universe size (fixed for the log's lifetime)")
    upi.set_defaults(func=cmd_update)
    upa = up_sub.add_parser("append", help="append one operation to a delta log")
    upa.add_argument("--log", required=True)
    upa.add_argument("--op", choices=["upsert", "remove", "flip"], required=True)
    upa.add_argument("--owner", type=int, required=True)
    upa.add_argument("--providers", type=_parse_id_list,
                     help="true provider ids for upsert, e.g. 1,4,9")
    upa.add_argument("--beta", type=float, default=None,
                     help="publication probability beta_j")
    upa.add_argument("--set", type=_parse_id_list, help="bits to set (flip)")
    upa.add_argument("--clear", type=_parse_id_list, help="bits to clear (flip)")
    upa.add_argument("--name", default=None, help="owner name (upsert)")
    upa.set_defaults(func=cmd_update)
    upp = up_sub.add_parser(
        "apply", help="seal the log's net state into an immutable segment"
    )
    upp.add_argument("--log", required=True)
    upp.add_argument("--base", required=True,
                     help="base snapshot the segment will overlay")
    upp.add_argument("--output", required=True, help="segment file to write")
    upp.set_defaults(func=cmd_update)
    upc = up_sub.add_parser(
        "compact", help="merge base snapshot + segments into a fresh epoch"
    )
    upc.add_argument("--base", required=True, help="base snapshot")
    upc.add_argument("--segment", action="append", required=True,
                     help="segment file, oldest first (repeatable)")
    upc.add_argument("--output", default=None,
                     help="output snapshot (default: replace base in place)")
    upc.add_argument("--delete-segments", action="store_true",
                     help="unlink consumed segment files after the merge")
    upc.set_defaults(func=cmd_update)

    fl = sub.add_parser("fleet", help="operations against a running fleet")
    fl_sub = fl.add_subparsers(dest="fleet_command", required=True)
    flr = fl_sub.add_parser(
        "rollout", help="rolling hot-swap of every shard onto a new snapshot"
    )
    flr.add_argument("--server", action="append", type=_parse_address,
                     required=True, metavar="HOST:PORT",
                     help="shard address, once per shard in shard order")
    flr.add_argument("--snapshot", required=True,
                     help="epoch-stamped snapshot to roll the fleet onto")
    flr.add_argument("--timeout", type=float, default=5.0,
                     help="per-request timeout")
    flr.add_argument("--settle-timeout", type=float, default=30.0,
                     help="seconds to wait for each shard to reach the epoch")
    flr.set_defaults(func=cmd_fleet)
    flp = fl_sub.add_parser(
        "promote",
        help="promote a replica server: detach from its leader, fold "
             "pending segments, answer as a primary",
    )
    flp.add_argument("--server", type=_parse_address, required=True,
                     metavar="HOST:PORT", help="replica server to promote")
    flp.add_argument("--timeout", type=float, default=60.0,
                     help="promotion compacts pending segments; allow for it")
    flp.set_defaults(func=cmd_fleet)

    rp = sub.add_parser(
        "replica",
        help="geo-replicated read tier: stream segments, tail a leader, "
             "inspect convergence",
    )
    rp_sub = rp.add_subparsers(dest="replica_command", required=True)
    rps = rp_sub.add_parser(
        "stream", help="leader side: archive + serve sealed segments"
    )
    rps.add_argument("--snapshot", required=True,
                     help="the leader's published snapshot (defines the epoch)")
    rps.add_argument("--segment-dir", required=True,
                     help="directory where sealed segments land")
    rps.add_argument("--archive-dir", default=None,
                     help="archive directory (default: <segment-dir>/repl-archive)")
    rps.add_argument("--host", default="127.0.0.1")
    rps.add_argument("--port", type=int, default=0)
    rps.add_argument("--chunk-bytes", type=int, default=4 * 2**20,
                     help="max segment bytes per repl-segment response")
    rps.add_argument("--retain-epochs", type=int, default=None,
                     help="drop archived segments this many epochs behind "
                          "the leader (default: keep everything)")
    rps.set_defaults(func=cmd_replica)
    rpv = rp_sub.add_parser(
        "serve", help="follower side: tail the leader, overlay, compact, serve"
    )
    rpv.add_argument("--leader", type=_parse_address, required=True,
                     metavar="HOST:PORT", help="the leader's segment streamer")
    rpv.add_argument("--base", required=True,
                     help="local base snapshot (the one-time initial seed)")
    rpv.add_argument("--segment-dir", default=None,
                     help="local segment directory (default: <base>.segments)")
    rpv.add_argument("--host", default="127.0.0.1")
    rpv.add_argument("--port", type=int, default=0)
    rpv.add_argument("--shard", type=int, default=0)
    rpv.add_argument("--shards", type=int, default=1)
    rpv.add_argument("--max-inflight", type=int, default=64)
    rpv.add_argument("--poll", type=float, default=0.5,
                     help="seconds between leader polls")
    rpv.add_argument("--compact-threshold", type=int, default=4,
                     help="completed segments that trigger local compaction")
    rpv.set_defaults(func=cmd_replica)
    rpt = rp_sub.add_parser("status", help="a replica's convergence state")
    rpt.add_argument("--server", type=_parse_address, required=True,
                     metavar="HOST:PORT")
    rpt.add_argument("--timeout", type=float, default=5.0)
    rpt.set_defaults(func=cmd_replica)

    sv = sub.add_parser(
        "supervisor",
        help="run a process-per-shard fleet from a snapshot, with restarts",
    )
    sv.add_argument("--snapshot", required=True,
                    help="binary index snapshot every worker boots from")
    sv.add_argument("--shards", type=int, default=2, help="worker process count")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--base-port", type=int, default=0,
                    help="shard i listens on base+i (0 picks free ports)")
    sv.add_argument("--max-inflight", type=int, default=64)
    sv.add_argument("--health-interval", type=float, default=0.25,
                    help="seconds between health-check rounds")
    sv.add_argument("--health-timeout", type=float, default=1.0)
    sv.add_argument("--max-restarts", type=int, default=8,
                    help="consecutive failed lives before giving a worker up")
    sv.add_argument("--duration", type=float, default=None,
                    help="run for N seconds then exit (default: forever)")
    sv.add_argument("--read-replicas", type=int, default=0,
                    help="extra read-tier workers per shard, each on its own "
                         "port; a live one is promoted if a primary fails")
    sv.set_defaults(func=cmd_supervisor)

    lg = sub.add_parser("loadgen", help="closed-loop load test against a fleet")
    lg.add_argument("--server", action="append", type=_parse_address,
                    required=True, metavar="HOST:PORT",
                    help="locator server address, once per shard in shard order")
    lg.add_argument("--provider", action="append",
                    type=_parse_provider_address, metavar="ID=HOST:PORT",
                    help="provider endpoint address (repeatable; enables search mode)")
    lg.add_argument("--mode", choices=["query", "batch", "search"],
                    default="query")
    lg.add_argument("--batch-size", type=int, default=32,
                    help="owners per query-batch round trip (batch mode)")
    lg.add_argument("--workers", type=int, default=4)
    lg.add_argument("--requests", type=int, default=50,
                    help="requests per worker")
    lg.add_argument("--owners", type=int, default=None,
                    help="owner-id space to draw from (default: ask the server)")
    lg.add_argument("--searcher", default="searcher")
    lg.add_argument("--think-time", type=float, default=0.0)
    lg.add_argument("--timeout", type=float, default=2.0)
    lg.add_argument("--max-retries", type=int, default=3)
    lg.add_argument("--cache-size", type=int, default=1024)
    lg.add_argument("--seed", type=int, default=0,
                    help="seeds both the client rng and the zipf schedule")
    lg.add_argument("--zipf-a", type=float, default=0.0,
                    help="Zipf exponent for hot-key skew (0 = uniform "
                         "round-robin); draws are reproducible under --seed")
    lg.add_argument("--shape", choices=["uniform", "diurnal", "burst"],
                    default="uniform",
                    help="arrival shape: steady, sinusoidal day/night, or "
                         "on/off bursts (shaped runs need --think-time > 0)")
    lg.add_argument("--shape-period", type=int, default=32,
                    help="requests per shape cycle (diurnal/burst)")
    lg.add_argument("--tiers", type=int, default=0,
                    help="partition owners into N privacy tiers (owner mod N) "
                         "and report per-tier latency percentiles")

    rt = sub.add_parser(
        "redteam",
        help="adversarial lab: attack a live fleet across epochs",
    )
    rt_sub = rt.add_subparsers(dest="redteam_command", required=True)

    rr = rt_sub.add_parser(
        "run",
        help="run a full observation campaign against a self-booted fleet",
    )
    rr.add_argument("--out", required=True,
                    help="output directory for observations.obs, truth.json, "
                         "report.json and the per-epoch snapshots")
    rr.add_argument("--providers", type=int, default=32)
    rr.add_argument("--owners", type=int, default=120)
    rr.add_argument("--epochs", type=int, default=5)
    rr.add_argument("--churn", type=float, default=0.01,
                    help="fraction of owners whose truth moves per epoch")
    rr.add_argument("--naive", action="store_true",
                    help="fresh-coin republication baseline (default: sticky)")
    rr.add_argument("--seed", type=int, default=0)
    rr.add_argument("--shards", type=int, default=1)
    rr.add_argument("--workers", type=int, default=2,
                    help="cover-load workers")
    rr.add_argument("--requests", type=int, default=20,
                    help="cover-load requests per worker per epoch")
    rr.add_argument("--shape", choices=["uniform", "diurnal", "burst"],
                    default="uniform", help="cover-load arrival shape")
    rr.add_argument("--shape-period", type=int, default=16)
    rr.add_argument("--think-time", type=float, default=0.0)
    rr.add_argument("--zipf-a", type=float, default=0.0)
    rr.add_argument("--reload-storm", action="store_true",
                    help="harvest and load *during* each rolling reload")
    rr.add_argument("--linkage-targets", type=int, default=8,
                    help="quasi-identifier records for the linkage attacker "
                         "(0 disables)")
    rr.set_defaults(func=cmd_redteam)

    rp = rt_sub.add_parser(
        "replay",
        help="re-run the attackers over a recorded observation log",
    )
    rp.add_argument("--observations", required=True,
                    help="observation log written by `redteam run`")
    rp.add_argument("--truth", required=True,
                    help="truth.json written by `redteam run`")
    rp.add_argument("--linkage-targets", type=int, default=8)
    rp.add_argument("--json", dest="json_out", default=None,
                    help="also write the recomputed report here")
    rp.set_defaults(func=cmd_redteam)

    rq = rt_sub.add_parser("report", help="pretty-print a saved privacy report")
    rq.add_argument("--report", required=True, help="report.json path")
    rq.set_defaults(func=cmd_redteam)

    lg.set_defaults(func=cmd_loadgen)
    return parser


if __name__ == "__main__":
    sys.exit(main())
