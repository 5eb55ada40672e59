"""Hierarchical zone-aware membership.

Partitions a cluster into zones — each a complete SWIM/Lifeguard group —
stitched together by per-zone bridge members gossiping compact zone
digests and forwarding terminal-state claims, all merging through the
same ``MemberMap.merge_claim`` precedence spine the flat protocol uses.
Zones interact only at fixed epoch barriers, which is what lets the
sharded multi-process driver reproduce single-process runs bit for bit.

See ``docs/ZONES.md`` for the design and the determinism contract.
"""

from repro.zones.bridge import UNREACHABLE_INTERVALS, BridgeStats, ZoneBridge
from repro.zones.cluster import (
    ZonedCluster,
    ZoneShard,
    digest_zone_cluster,
    merge_zone_digests,
)
from repro.zones.metrics import ZoneCollector
from repro.zones.sharded import (
    StressWindow,
    ZonedRunResult,
    run_zoned,
    shard_slices,
)
from repro.zones.topology import Zone, ZoneLayout, build_layout, zone_seed

__all__ = [
    "BridgeStats",
    "StressWindow",
    "UNREACHABLE_INTERVALS",
    "Zone",
    "ZoneBridge",
    "ZoneCollector",
    "ZoneLayout",
    "ZoneShard",
    "ZonedCluster",
    "ZonedRunResult",
    "build_layout",
    "digest_zone_cluster",
    "merge_zone_digests",
    "run_zoned",
    "shard_slices",
    "zone_seed",
]
