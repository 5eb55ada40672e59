"""Zoned clusters: per-zone SWIM groups on an epoch-barrier fabric.

Each zone is a complete, self-contained :class:`~repro.sim.runtime.SimCluster`
— its own virtual clock, scheduler, network and event log, seeded from
``zone_seed(master seed, zone index)``. Zones interact *only* through
the bridge layer (:mod:`repro.zones.bridge`), and bridge traffic moves
only at **epoch barriers**: every ``cross_zone_interval`` of virtual
time, all zones stop at the same instant, their outbox records are
merged in ``(zone index, send order)`` order, and the surviving records
are injected into the destination schedulers for the next epoch. The epoch
length is thus a fixed cross-zone latency floor — and, more importantly,
the *only* synchronization point between zones.

That discipline is what makes sharding trivial to get right: a
:class:`ZoneShard` holds any subset of zones and exposes exactly three
operations (``run_until`` a barrier, ``outbox_frame``, ``deliver``).
Cross-zone traffic has one representation, the packed record frame of
:mod:`repro.zones.frames`. :class:`ZonedCluster` drives one shard
in-process and routes its own frame; :mod:`repro.zones.sharded` drives
many shards in worker processes with the master relaying frames between
them. Both run the identical per-zone code on the identical record
sequences, so a seeded run produces a bit-identical merged trace digest
regardless of the process count.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.config import SwimConfig
from repro.sim.runtime import SimCluster
from repro.sim.scheduler import EventScheduler
from repro.swim.node import SwimNode
from repro.zones.bridge import ZoneBridge
from repro.zones.frames import (
    RECORD_HEAD,
    BridgeTable,
    FrameBuffer,
    Record,
    iter_records,
    record_order,
)
from repro.zones.topology import ZoneLayout, build_layout, zone_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ops.registry import MetricsRegistry

__all__ = [
    "ZoneShard",
    "ZonedCluster",
    "barrier_schedule",
    "digest_zone_cluster",
    "merge_zone_digests",
]


def barrier_schedule(
    deadline: float,
    epoch: float,
    now: float = 0.0,
    next_barrier: Optional[float] = None,
) -> Iterator[Tuple[float, bool]]:
    """Yield the ``(target, is_barrier)`` steps of an epoch drive loop.

    This generator *is* the drive loop's float arithmetic: master,
    workers and :meth:`ZonedCluster.run_until` all consume it, so every
    party counts the identical number of barrier exchanges even when
    ``deadline`` is not a clean multiple of ``epoch`` (accumulated
    ``barrier += epoch`` float error and all). ``now``/``next_barrier``
    resume a loop mid-flight — :class:`ZonedCluster` advances in
    multiple ``run_until`` calls.
    """
    barrier = epoch if next_barrier is None else next_barrier
    while now < deadline:
        target = min(deadline, barrier)
        is_barrier = target == barrier
        yield target, is_barrier
        now = target
        if is_barrier:
            barrier += epoch


class ZoneShard:
    """A set of zones co-hosted in one process.

    The unit of work for both the single-process and the multi-process
    drivers: it can advance its zones to a barrier, surrender the
    cross-zone records they produced as one packed frame, and accept the
    records routed to it. Zones are always constructed, started and
    advanced in zone-index order, so any partitioning of zones into
    shards replays the same per-zone schedules. Each record carries
    ``(src_zone, seq)``, where ``seq`` is the per-source-zone send
    counter, so the merge order is independent of the sharding.
    """

    def __init__(
        self,
        layout: ZoneLayout,
        zone_indices: Iterable[int],
        config: SwimConfig,
        seed: int,
        loss_rate: float = 0.0,
    ) -> None:
        self.layout = layout
        self.zone_indices: Tuple[int, ...] = tuple(sorted(zone_indices))
        self.clusters: Dict[int, SimCluster] = {}
        self.bridges: Dict[int, List[ZoneBridge]] = {}
        self._bridge_by_name: Dict[str, ZoneBridge] = {}
        self._zone_index: Dict[str, int] = {z.name: z.index for z in layout.zones}
        self._seq: Dict[int, int] = {}
        #: Bridge senders pack records straight into one reusable frame;
        #: the intern table is a pure function of the layout.
        self.bridge_table = BridgeTable.from_layout(layout)
        self._frame = FrameBuffer()
        for zi in self.zone_indices:
            zone = layout.zones[zi]
            zcfg = config.replace(zone=zone.name, zone_count=layout.zone_count)
            cluster = SimCluster(
                n_members=len(zone.members),
                config=zcfg,
                seed=zone_seed(seed, zi),
                names=list(zone.members),
                loss_rate=loss_rate,
            )
            self.clusters[zi] = cluster
            self._seq[zi] = 0
            send = self._sender_for(zi)
            bridges: List[ZoneBridge] = []
            for b_index, b_name in enumerate(zone.bridges):
                bridge = ZoneBridge(
                    node=cluster.nodes[b_name],
                    zone=zone,
                    layout=layout,
                    config=zcfg,
                    scheduler=cluster.scheduler,
                    send=send,
                    rng_seed=zone_seed(seed, zi) * 31 + b_index + 1,
                )
                bridges.append(bridge)
                self._bridge_by_name[b_name] = bridge
            self.bridges[zi] = bridges

    def _sender_for(self, src_zone: int) -> Callable[[str, str, bytes], None]:
        frame = self._frame
        bridge_ids = self.bridge_table.ids
        zone_index = self._zone_index
        seq_map = self._seq

        def send(dest_zone: str, dest_bridge: str, payload: bytes) -> None:
            seq = seq_map[src_zone]
            seq_map[src_zone] = seq + 1
            frame.append(
                src_zone, seq, zone_index[dest_zone], bridge_ids[dest_bridge], payload
            )

        return send

    def start(self) -> None:
        for zi in self.zone_indices:
            self.clusters[zi].start()
            for bridge in self.bridges[zi]:
                bridge.start()

    def run_until(self, deadline: float) -> int:
        executed = 0
        for zi in self.zone_indices:
            executed += self.clusters[zi].run_until(deadline)
        return executed

    def outbox_frame(self) -> FrameBuffer:
        """The packed records produced since the last barrier, in
        ``(src zone, send order)`` order within this shard. The caller
        ships ``.view()`` and then calls ``.reset()`` — the buffer is
        reused every epoch."""
        return self._frame

    def deliver(self, records: Iterable[Record], at: float) -> Tuple[int, int]:
        """Inject decoded ``(src_zone, seq, dest_zone, bridge_id,
        payload)`` records at a barrier.

        Records must come in the globally sorted ``(src_zone, seq)``
        order; injection order determines scheduler sequence numbers,
        which the determinism contract pins. Payloads are materialized
        here because the scheduled closures outlive the (reused) frame
        buffer. Returns ``(records, payload bytes)`` delivered."""
        names = self.bridge_table.names
        by_name = self._bridge_by_name
        clusters = self.clusters
        count = 0
        payload_bytes = 0
        for _src, _seq, dest_zone, bridge_id, view in records:
            bridge = by_name[names[bridge_id]]
            payload = bytes(view)
            clusters[dest_zone].scheduler.call_at(
                at,
                lambda b=bridge, p=payload: b.receive(p),  # type: ignore[misc]
            )
            count += 1
            payload_bytes += len(payload)
        return count, payload_bytes

    def stop(self) -> None:
        for zi in self.zone_indices:
            self.clusters[zi].stop()


class ZonedCluster:
    """Single-process driver for a fully zoned cluster.

    Mirrors the :class:`~repro.sim.runtime.SimCluster` surface the
    harness and fuzzer rely on (``nodes``, ``names``, ``run_until`` /
    ``run_for``, ``now``, ``stop``) while internally advancing every
    zone in epoch lockstep. Cross-zone faults are modelled here — a
    *zone partition* drops barrier traffic crossing the partition
    boundary for a window of virtual time.
    """

    def __init__(
        self,
        n_members: int,
        config: Optional[SwimConfig] = None,
        seed: int = 0,
        zone_count: int = 0,
        loss_rate: float = 0.0,
    ) -> None:
        if config is None:
            config = SwimConfig.lifeguard()
        zone_count = zone_count or config.zone_count
        if zone_count < 1:
            raise ValueError("zoned cluster needs zone_count >= 1")
        self.config = config
        self.seed = seed
        self.layout = build_layout(n_members, zone_count, config.bridges_per_zone)
        self.epoch = config.cross_zone_interval
        self.shard = ZoneShard(
            self.layout, range(zone_count), config, seed, loss_rate=loss_rate
        )
        self._roster = self.layout.roster()
        self._now = 0.0
        self._next_barrier = self.epoch
        self._started = False
        #: ``(start, end, isolated zone indices)`` windows; records with
        #: exactly one endpoint inside the isolated set are dropped at
        #: barriers falling in ``[start, end)``.
        self._partitions: List[Tuple[float, float, FrozenSet[int]]] = []
        #: Records cut by zone partitions.
        self.cross_zone_dropped = 0
        #: Exchange instrumentation, mirrored by the sharded driver so
        #: ``ZonedRunResult`` carries comparable numbers either way:
        #: barriers crossed, wall seconds spent routing exchanges, and
        #: delivered record volume (payload + per-record frame header,
        #: i.e. the bytes the barrier would put on the frame wire).
        self.barriers = 0
        self.barrier_exchange_s = 0.0
        self.barrier_bytes = 0
        self.barrier_msgs = 0
        #: Populated by :meth:`install_ops_registry`.
        self.ops_registry: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------ #
    # Topology accessors
    # ------------------------------------------------------------------ #

    @property
    def names(self) -> List[str]:
        return [name for zone in self.layout.zones for name in zone.members]

    @property
    def nodes(self) -> Dict[str, SwimNode]:
        merged: Dict[str, SwimNode] = {}
        for zi in self.shard.zone_indices:
            merged.update(self.shard.clusters[zi].nodes)
        return merged

    @property
    def clusters(self) -> Dict[str, SimCluster]:
        return {
            self.layout.zones[zi].name: cluster
            for zi, cluster in self.shard.clusters.items()
        }

    @property
    def bridges(self) -> List[ZoneBridge]:
        return [b for zi in self.shard.zone_indices for b in self.shard.bridges[zi]]

    def zone_of(self, member: str) -> str:
        return self._roster[member]

    def cluster_of(self, member: str) -> SimCluster:
        return self.shard.clusters[self.shard._zone_index[self._roster[member]]]

    def scheduler_for(self, member: str) -> EventScheduler:
        return self.cluster_of(member).scheduler

    def node(self, name: str) -> SwimNode:
        return self.cluster_of(name).nodes[name]

    # ------------------------------------------------------------------ #
    # Faults
    # ------------------------------------------------------------------ #

    def add_zone_partition(
        self, zones: Iterable[Union[str, int]], start: float, end: float
    ) -> None:
        """Isolate a set of zones (names or indices) from the rest for
        ``[start, end)``."""
        isolated = frozenset(
            self.shard._zone_index[z] if isinstance(z, str) else z for z in zones
        )
        self._partitions.append((start, end, isolated))

    def _cut(self, records: List[Record], barrier: float) -> List[Record]:
        """The records that survive the zone partitions active at
        ``barrier``: those not crossing any isolated set's boundary."""
        active = [
            iso for start, end, iso in self._partitions if start <= barrier < end
        ]
        if not active:
            return records
        return [
            r
            for r in records
            if not any((r[0] in iso) != (r[2] in iso) for iso in active)
        ]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        self.shard.start()

    def run_until(self, deadline: float) -> int:
        """Advance all zones to ``deadline`` in epoch lockstep."""
        executed = 0
        for target, is_barrier in barrier_schedule(
            deadline, self.epoch, self._now, self._next_barrier
        ):
            executed += self.shard.run_until(target)
            self._now = target
            if is_barrier:
                self._exchange(target)
                self._next_barrier += self.epoch
        return executed

    def run_for(self, duration: float) -> int:
        return self.run_until(self._now + duration)

    def _exchange(self, barrier: float) -> None:
        """Route this shard's own outbox frame back into it: decode, sort
        into the merge order, cut partitioned records, deliver."""
        started = time.perf_counter()
        frame = self.shard.outbox_frame()
        view = frame.view()
        records = sorted(iter_records(view), key=record_order)
        inbound = self._cut(records, barrier)
        self.cross_zone_dropped += len(records) - len(inbound)
        count, payload_bytes = self.shard.deliver(inbound, barrier)
        # The decoded payloads alias the frame: drop them before reuse.
        del records, inbound
        view.release()
        frame.reset()
        self.barriers += 1
        self.barrier_msgs += count
        self.barrier_bytes += payload_bytes + count * RECORD_HEAD.size
        self.barrier_exchange_s += time.perf_counter() - started

    def stop(self) -> None:
        self.shard.stop()

    @property
    def now(self) -> float:
        return self._now

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def install_ops_registry(self) -> "MetricsRegistry":
        """Attach the ops plane: one registry with the per-zone
        ``lifeguard_zone_*`` families (see :mod:`repro.zones.metrics`).
        Aggregated per zone, not per node — per-node collectors do not
        scale to the member counts the sharded driver targets."""
        from repro.ops.registry import MetricsRegistry
        from repro.zones.metrics import ZoneCollector

        if self.ops_registry is None:
            registry = MetricsRegistry()
            ZoneCollector(registry, self)
            self.ops_registry = registry
        return self.ops_registry

    def set_event_tap(self, tap: Optional[Callable[[float], None]]) -> None:
        for zi in self.shard.zone_indices:
            self.shard.clusters[zi].set_event_tap(tap)

    def total_events(self) -> int:
        return sum(
            len(self.shard.clusters[zi].event_log.events)
            for zi in self.shard.zone_indices
        )

    def zone_digests(self) -> Dict[str, str]:
        """Per-zone canonical trace digests (event log + telemetry)."""
        return {
            self.layout.zones[zi].name: digest_zone_cluster(self.shard.clusters[zi])
            for zi in self.shard.zone_indices
        }

    def merged_digest(self) -> str:
        return merge_zone_digests(self.zone_digests())


# --------------------------------------------------------------------- #
# Trace digests
# --------------------------------------------------------------------- #


def digest_zone_cluster(cluster: SimCluster) -> str:
    """Canonical digest of one finished zone: the full membership event
    log plus message/byte telemetry and the scheduler's executed-event
    count — the same record shape the flat-cluster trace-equivalence
    tests pin."""
    log = [
        (e.time, e.observer, e.subject, e.kind.name, e.incarnation)
        for e in cluster.event_log.events
    ]
    telemetry = cluster.telemetry()
    record = {
        "events": log,
        "executed": cluster.scheduler.executed,
        "msgs_sent": telemetry.msgs_sent,
        "bytes_sent": telemetry.bytes_sent,
        "msgs_received": telemetry.msgs_received,
        "msgs_by_kind": dict(sorted(telemetry.msgs_by_kind.items())),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def merge_zone_digests(digests: Dict[str, str]) -> str:
    """Order-independent merge of per-zone digests: the cluster-level
    digest the 1-process-vs-N-shard equivalence contract compares."""
    blob = json.dumps(sorted(digests.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
