"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import time

import pytest

from perfbench import instrument, probe, stats, tracing, workloads


class TestTail:
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        assert stats.tail(list(range(1000)))[0] == 99.0
        # 900 samples leave only 9 ranked above p99, so p95 is reported.
        assert stats.tail(list(range(900)))[0] == 95.0
        assert stats.tail(list(range(10_000)))[0] == 99.9

    def test_reports_sample_count_and_value(self):
        pct, value, count = stats.tail([float(v) for v in range(1, 1001)])
        assert (pct, count) == (99.0, 1000)
        assert value == pytest.approx(990.01)

    def test_median_is_the_floor_and_small_samples_get_none(self):
        assert stats.tail(list(range(20)))[0] == 50.0
        assert stats.tail(list(range(19))) == (None, None, 19)


def _self_times(spans):
    starts = [start for start, _, _ in spans]
    ends = [end for _, end, _ in spans]
    parents = [parent for _, _, parent in spans]
    return list(stats.self_times(starts, ends, parents))


class TestSelfTimes:
    def test_nested_children(self):
        spans = [(0.0, 10.0, -1), (2.0, 5.0, 0), (3.0, 4.0, 1), (6.0, 7.0, 0)]
        assert _self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (5.0, 5.5, 0)]
        assert _self_times(spans)[0] == pytest.approx(5.0)

    def test_children_clipped_to_parent_and_unsorted_input(self):
        spans = [(8.0, 12.0, 2), (-1.0, 1.0, 2), (0.0, 10.0, -1), (4.0, 5.0, 2)]
        assert _self_times(spans) == pytest.approx([4.0, 2.0, 6.0, 1.0])


class TestTracer:
    def test_spans_record_parents_and_family_tops(self):
        tracer = tracing.Tracer()

        def leaf():
            return 1

        traced_leaf = tracer.traced(leaf, "leaf", family="f")

        def outer():
            return traced_leaf() + traced_leaf()

        traced_outer = tracer.traced(outer, "outer", family="f")
        assert traced_outer() == 2
        assert list(tracer.parents) == [-1, 0, 0]
        summary = tracer.summary()
        assert summary["outer"]["calls"] == 1
        assert summary["leaf"]["calls"] == 2
        assert summary["leaf"]["top_calls"] == 0
        assert summary["outer"]["top_s"] >= summary["leaf"]["total_s"]

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = tracing.Tracer()
        tracer.traced(lambda: None, "phase")()
        tracer.counts["things"] += 3
        tracer.dump(tmp_path / "spans.bin")
        loaded = tracing.load(tmp_path / "spans.bin")
        assert loaded["names"] == ["phase"]
        assert loaded["counts"] == {"things": 3}
        summary = tracing.summarize(loaded["names"], *loaded["columns"])
        assert summary["phase"]["calls"] == 1

    def test_restore_puts_back_every_wrapped_attribute(self):
        probe = tracing.Tracer()
        instrument.instrument(probe)
        owners = {id(owner): owner for owner, *_ in probe._patches}
        probe.restore()
        before = {key: dict(vars(owner)) for key, owner in owners.items()}

        tracer = tracing.Tracer()
        instrument.instrument(tracer)
        assert any(
            dict(vars(owner)) != before[key] for key, owner in owners.items()
        )
        tracer.restore()
        for key, owner in owners.items():
            after = dict(vars(owner))
            assert after.keys() == before[key].keys(), owner
            for attr, value in before[key].items():
                assert after[attr] is value, (owner, attr)


class TestSpeedProbe:
    def test_slow_core_scales_down_and_probe_time_is_excluded(self):
        ref = probe.REF_KERNEL_S
        # A core running the kernel at half the reference speed, sampled
        # every second; each sample spends 2 * ref inside the interval.
        samples = [(float(t), 2 * ref) for t in range(1, 10)]
        expected = (10.0 - 9 * 2 * ref) / 2
        assert probe.ref_seconds(samples, 0.0, 10.0) == pytest.approx(expected)
        assert probe.probe_seconds(samples, 0.0, 10.0) == pytest.approx(18 * ref)

    def test_interval_without_samples_uses_the_nearest(self):
        samples = [(0.0, 4 * probe.REF_KERNEL_S), (5.0, 4 * probe.REF_KERNEL_S)]
        assert probe.ref_seconds(samples, 1.0, 2.0) == pytest.approx(0.25)

    def test_sampling_runs_between_bytecodes_and_stops(self):
        with probe.SpeedProbe(interval=0.01) as speed:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        count = len(speed.samples)
        assert count >= 5
        time.sleep(0.05)
        assert len(speed.samples) == count


class TestStopChildren:
    def test_stops_the_resource_tracker_and_other_children(self):
        # In a child interpreter, so nothing of the test runner is stopped.
        import json
        import subprocess
        import sys
        from pathlib import Path

        script = """
import json, subprocess
from multiprocessing import resource_tracker, shared_memory
from perfbench import workloads
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
subprocess.Popen(["sleep", "30"])
before = workloads.child_pids()
workloads.stop_children()
print(json.dumps({"before": before, "after": workloads.child_pids(),
                  "tracker": resource_tracker._resource_tracker._pid}))
"""
        root = Path(__file__).resolve().parents[2]
        out = subprocess.run([sys.executable, "-c", script], cwd=root,
                             capture_output=True, text=True, timeout=60, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert len(result["before"]) >= 2
        assert result["after"] == []
        assert result["tracker"] is None
