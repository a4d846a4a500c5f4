"""The serving stack in its deployed configuration, and its in-process twin.

Single-process workloads serve one :class:`ServiceHTTPServer` with the
CLI's defaults (``python -m repro.service.transport``): a
:class:`MicroBatchQueue` with ``max_batch=256``, ``max_delay_ms=5``,
``max_depth=1024`` and the reject overflow policy, and
``max_batch_items=4096``.  The sharded workload serves a
:class:`ShardRouter` with its default retry policy and no hedging over a
``WorkerPool(2)`` that loads the fleet's persisted registry.

Set-up is timed as a user pays it: fleet synthesis, 500-user enrollment
training and server start (plus registry persistence, worker spawn and
registry load for the cluster).  It runs several times per run; the
median is reported and the first build stays behind, never served, as
the in-process twin the oracle computes reference answers with.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.service.cluster import ShardRouter, WorkerPool
from repro.service.fleet import FleetConfig, FleetSimulator
from repro.service.frontend import MicroBatchQueue
from repro.service.transport import ServiceHTTPServer

#: The fleet size every workload serves.
FLEET_USERS = 500

#: Set-ups per run (the median is reported).
SETUP_REPEATS = 3

#: Shard workers behind the router.
CLUSTER_WORKERS = 2

#: ``python -m repro.service.transport`` defaults.
QUEUE_MAX_BATCH = 256
QUEUE_MAX_DELAY_S = 0.005
QUEUE_MAX_DEPTH = 1024
MAX_BATCH_ITEMS = 4096


@dataclass
class Deployment:
    """One served fleet: its simulator (operator side) and its front door."""

    simulator: FleetSimulator
    port: int
    api_key: str
    server: ServiceHTTPServer | None = None
    router: ShardRouter | None = None
    pool: WorkerPool | None = None
    registry_root: Path | None = None

    def worker_pids(self) -> list[int]:
        if self.pool is None:
            return []
        return [pid for pid in self.pool.pids().values() if pid is not None]

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.router is not None:
            self.router.shutdown()
            self.router.server_close()
            self.router = None
        if self.pool is not None:
            self.pool.stop()
            self.pool = None
        if self.registry_root is not None:
            shutil.rmtree(self.registry_root, ignore_errors=True)
            self.registry_root = None


def build_fleet(seed: int, users: int, registry_root: Path | None = None) -> FleetSimulator:
    """Synthesise and enroll the fleet (every user trained and published)."""
    simulator = FleetSimulator(
        FleetConfig(n_users=users, seed=seed), registry_root=registry_root
    )
    simulator.build_users()
    simulator.enroll_fleet()
    return simulator


def serve_single(simulator: FleetSimulator) -> Deployment:
    queue = MicroBatchQueue(
        simulator.frontend,
        max_batch=QUEUE_MAX_BATCH,
        max_delay_s=QUEUE_MAX_DELAY_S,
        max_depth=QUEUE_MAX_DEPTH,
        overflow="reject",
    )
    server = ServiceHTTPServer(
        simulator.frontend,
        queue=queue,
        max_batch_items=MAX_BATCH_ITEMS,
        callers=simulator.callers,
    ).serve_background()
    return Deployment(simulator, server.port, simulator.api_key, server=server)


def serve_sharded(simulator: FleetSimulator, registry_root: Path) -> Deployment:
    pool = WorkerPool(CLUSTER_WORKERS, registry_root=registry_root)
    deployment = Deployment(simulator, 0, pool.api_key, registry_root=registry_root)
    deployment.pool = pool.start()
    router = ShardRouter(pool).serve_background()
    deployment.router = router
    deployment.port = router.port
    return deployment


def set_up(
    sharded: bool,
    seed: int,
    work_dir: Path,
    users: int = FLEET_USERS,
    repeats: int = SETUP_REPEATS,
) -> tuple[Deployment, FleetSimulator, list[float]]:
    """Deploy *repeats* times; return the last deployment, the twin, the times.

    The twin is the first build's simulator (its server is stopped), or a
    separate untimed build when only one set-up is asked for.
    """
    times: list[float] = []
    twin: FleetSimulator | None = None
    deployment: Deployment | None = None
    for index in range(repeats):
        if deployment is not None:
            deployment.close()
        root = work_dir / f"registry-{index}" if sharded else None
        started = perf_counter()
        simulator = build_fleet(seed, users, registry_root=root)
        deployment = serve_sharded(simulator, root) if sharded else serve_single(simulator)
        times.append(perf_counter() - started)
        if twin is None and repeats > 1:
            twin = simulator
    if twin is None:
        twin = build_fleet(seed, users)
    return deployment, twin, times
