"""The in-process zoned cluster: topology, faults and digests."""

import pytest

from repro.config import SwimConfig
from repro.harness.stress import StressParams, run_stress
from repro.ops.registry import MetricsRegistry
from repro.zones.cluster import ZonedCluster, merge_zone_digests
from repro.zones.sharded import StressWindow, run_zoned, shard_slices


def make_cluster(n=24, zones=3, seed=1, **overrides):
    config = SwimConfig.lifeguard().replace(zone_count=zones, **overrides)
    return ZonedCluster(n, config, seed=seed, zone_count=zones)


class TestShardSlices:
    def test_covers_all_zones_exactly_once(self):
        for zones, shards in ((8, 3), (7, 7), (5, 12), (64, 4)):
            slices = shard_slices(zones, shards)
            flat = [zi for s in slices for zi in s]
            assert flat == list(range(zones))
            assert len(slices) == min(shards, zones)

    def test_near_even(self):
        sizes = [len(s) for s in shard_slices(10, 4)]
        assert max(sizes) - min(sizes) <= 1


class TestZonedCluster:
    def test_zone_partition_window_cuts_and_heals(self):
        cluster = make_cluster()
        cluster.add_zone_partition(("z000",), 10.0, 40.0)
        cluster.start()
        cluster.run_until(80.0)
        # After the window heals every bridge sees every zone again.
        for bridge in cluster.bridges:
            if bridge.node.running:
                assert not bridge.unreachable

    def test_zone_partition_pinned(self):
        # Pins the partitioned exchange: which records cross the barrier,
        # in which order, and what the cut costs. The digest and counters
        # were recorded before the exchange moved onto packed frames.
        cluster = make_cluster()
        cluster.add_zone_partition(("z000",), 10.0, 40.0)
        cluster.start()
        cluster.run_until(25.0)
        for bridge in cluster.bridges:
            if bridge.zone.name != "z000":
                assert "z000" in bridge.unreachable
        cluster.run_until(60.0)
        assert cluster.merged_digest() == (
            "87d09aeced821f0626b2e0549c8cd5698d3dc74515c44a288b52ce4bffc239c7"
        )
        assert cluster.barriers == 60
        assert cluster.barrier_msgs == 242
        assert cluster.barrier_bytes == 14_940
        assert cluster.cross_zone_dropped == 126

    def test_digests_deterministic_across_reruns(self):
        a = make_cluster()
        a.start()
        a.run_until(20.0)
        b = make_cluster()
        b.start()
        b.run_until(20.0)
        assert a.zone_digests() == b.zone_digests()
        assert merge_zone_digests(a.zone_digests()) == merge_zone_digests(
            b.zone_digests()
        )

    def test_seed_changes_digest(self):
        a = make_cluster(seed=1)
        a.start()
        a.run_until(20.0)
        b = make_cluster(seed=2)
        b.start()
        b.run_until(20.0)
        assert a.zone_digests() != b.zone_digests()

    def test_metrics_registry_exports_zone_gauges(self):
        cluster = make_cluster()
        registry = cluster.install_ops_registry()
        assert isinstance(registry, MetricsRegistry)
        assert cluster.install_ops_registry() is registry
        cluster.start()
        cluster.run_until(15.0)
        sample = {m.name for m in registry.collect()}
        assert any(name.startswith("lifeguard_zone_") for name in sample)


class TestRunZoned:
    def test_rejects_zoneless_call(self):
        with pytest.raises(ValueError):
            run_zoned(16, zone_count=0)

    def test_stress_windows_are_shard_independent(self):
        windows = (
            StressWindow(
                member="z001-m002", start=5.0, duration=10.0, burst_seed=9
            ),
        )
        kwargs = dict(
            seed=3, zone_count=4, duration=20.0,
            stress_windows=windows, return_events=True,
        )
        single = run_zoned(32, **kwargs, shards=1)
        sharded = run_zoned(32, **kwargs, shards=2)
        assert single.digest == sharded.digest
        assert single.member_events == sharded.member_events

    def test_return_events_off_by_default(self):
        result = run_zoned(16, seed=1, zone_count=2, duration=10.0)
        assert result.member_events == ()


class TestZonedStressHarness:
    def test_zoned_flag_routes_to_zoned_cluster(self):
        result = run_stress(
            StressParams(
                configuration="Lifeguard",
                n_members=32,
                n_stressed=3,
                stress_duration=30.0,
                seed=2,
                zones=4,
            )
        )
        assert len(result.stressed) == 3
        assert all(name.startswith("z") for name in result.stressed)

    def test_zoned_stress_validation(self):
        with pytest.raises(ValueError):
            StressParams(n_members=6, n_stressed=1, zones=4)
        with pytest.raises(ValueError):
            StressParams(n_members=32, n_stressed=1, zones=2, shards=0)
