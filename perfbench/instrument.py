"""Where the traced run wraps the program, and the per-layer metrics.

:func:`instrument` installs every wrapper on a :class:`Tracer`;
:func:`layer_metrics` turns the spans and counts of one or more
processes into the fixed per-layer metric set. Every metric is reported
on every workload; a layer that does not run reports 0.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from perfbench.tracing import Tracer

#: (metric, unit) of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.scheduler.events", "count"),
    ("sim.scheduler.scheduled", "count"),
    ("sim.scheduler.self_s", "s"),
    ("sim.network.sends", "count"),
    ("sim.network.bytes", "B"),
    ("sim.network.dropped", "count"),
    ("sim.network.self_s", "s"),
    ("sim.anomaly.windows", "count"),
    ("sim.anomaly.queued", "count"),
    ("sim.anomaly.dropped", "count"),
    ("swim.codec.encodes", "count"),
    ("swim.codec.decodes", "count"),
    ("swim.codec.bytes_encoded", "B"),
    ("swim.codec.self_s", "s"),
    ("swim.codec.ns_per_op", "ns"),
    ("swim.member_map.adds", "count"),
    ("swim.member_map.add_s", "s"),
    ("swim.member_map.merges", "count"),
    ("swim.member_map.merge_s", "s"),
    ("swim.member_map.probe_target_s", "s"),
    ("swim.member_map.random_members_s", "s"),
    ("swim.probe_scheduler.members_added", "count"),
    ("swim.probe_scheduler.self_s", "s"),
    ("swim.broadcast.enqueued", "count"),
    ("swim.broadcast.get_payloads_s", "s"),
    ("swim.broadcast.payloads_per_packet", "count"),
    ("swim.broadcast.max_depth", "count"),
    ("swim.node.packets", "count"),
    ("swim.node.handle_packet_self_s", "s"),
    ("core.suspicion.started", "count"),
    ("core.suspicion.confirmations", "count"),
    ("core.lhm.max_score", "count"),
    ("zones.barriers", "count"),
    ("zones.barrier_msgs", "count"),
    ("zones.barrier_bytes", "B"),
    ("zones.barrier_exchange_s", "s"),
    ("zones.barrier_overflows", "count"),
    ("zones.shard_start_s", "s"),
    ("zones.bridge_receives", "count"),
    ("transport.send_syscalls", "count"),
    ("transport.recv_syscalls", "count"),
    ("transport.dgrams_per_send", "count"),
    ("transport.dgrams_per_recv", "count"),
    ("transport.self_s", "s"),
    ("ops.scrape_ms", "ms"),
    ("ops.scrape_bytes", "B"),
    ("phase.build_s", "s"),
    ("phase.start_s", "s"),
    ("phase.run_s", "s"),
    ("phase.stop_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("outcome.fp_events", "count"),
    ("outcome.fp_healthy_events", "count"),
    ("outcome.detect_pairs", "count"),
    ("outcome.detect_p50_s", "s"),
    ("outcome.detect_p99_s", "s"),
    ("outcome.msgs_per_member_s", "msgs"),
    ("outcome.ack_p50_ms", "ms"),
    ("outcome.ack_p99_ms", "ms"),
    ("udp.gen_late_ms", "ms"),
    ("udp.gen_cpu_us_per_ping", "us"),
    ("udp.member_traced_us_per_ping", "us"),
)

CODEC_ENCODES = ("swim.codec.encode", "swim.codec.encode_into")
PROBE_SCHEDULER_HOOKS = ("on_member_added", "on_members_removed", "note_ack",
                         "note_confirmation", "next_target")


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.core.lhm import LocalHealthMultiplier
    from repro.core.suspicion import Suspicion
    from repro.ops import http
    from repro.sim.anomaly import AnomalyController
    from repro.sim.network import SimNetwork
    from repro.sim.scheduler import EventScheduler
    from repro.swim import codec, probe_scheduler
    from repro.swim.broadcast import BroadcastQueue
    from repro.swim.member_map import MemberMap
    from repro.swim.node import SwimNode
    from repro.transport.fastudp import BatchedUdpTransport, PacketPump
    from repro.zones import bridge
    from repro.zones.cluster import ZoneShard

    counts, maxima = tracer.counts, tracer.maxima

    def add_count(key: str, amount: Any = 1) -> None:
        counts[key] += amount

    def encoded_bytes(_args: Tuple[Any, ...], result: Any) -> None:
        add_count("swim.codec.bytes_encoded",
                  result if isinstance(result, int) else len(result))

    # Scheduler: each scheduled callback runs inside a "sim.event" span, so
    # the scheduler's own self time excludes the work its events do.
    tracer.wrap(EventScheduler, "run_until", "sim.scheduler.run_until",
                family="sim.scheduler")
    tracer.wrap(EventScheduler, "call_at", "sim.scheduler.call_at",
                family="sim.scheduler")
    timed_call_at = EventScheduler.call_at

    def call_at(self: Any, when: float, callback: Any) -> Any:
        return timed_call_at(self, when, tracer.traced(callback, "sim.event"))

    tracer.replace(EventScheduler, "call_at", call_at)

    tracer.wrap(SimNetwork, "send", "sim.network.send", family="sim.network")
    tracer.wrap(SimNetwork, "inject", "sim.network.inject", family="sim.network",
                measure=lambda a, _r: add_count("sim.network.bytes", len(a[3])))
    tracer.wrap(SimNetwork, "deliver_now", "sim.network.deliver_now",
                family="sim.network")
    tracer.count(AnomalyController, "block_window", "sim.anomaly.windows")
    tracer.count(AnomalyController, "intercept_send", "anomaly.intercept_send",
                 measure=lambda _a, r: add_count("sim.anomaly.queued_out", bool(r)))
    tracer.count(AnomalyController, "intercept_delivery",
                 "anomaly.intercept_delivery",
                 measure=lambda _a, r: add_count("sim.anomaly.queued_in", bool(r)))

    for name in ("encode", "encode_into"):
        tracer.wrap(codec, name, f"swim.codec.{name}", family="swim.codec",
                    measure=encoded_bytes)
    tracer.wrap(codec, "decode", "swim.codec.decode", family="swim.codec")
    for name in ("pack_with_piggyback", "pack_encoded_with_piggyback",
                 "pack_encoded_with_piggyback_into"):
        tracer.wrap(codec, name, f"swim.codec.{name}", family="swim.codec")
    # The bridge imports ``encode`` by name, so it resolves its own copy.
    tracer.wrap(bridge, "encode", "swim.codec.encode", family="swim.codec",
                measure=encoded_bytes)

    tracer.wrap(MemberMap, "add", "swim.member_map.add")
    for name in ("merge_claim", "merge_remote_state", "merge_remote_wire_state"):
        tracer.wrap(MemberMap, name, f"swim.member_map.{name}",
                    family="swim.member_map.merge")
    tracer.wrap(MemberMap, "next_probe_target", "swim.member_map.next_probe_target")
    tracer.wrap(MemberMap, "random_members", "swim.member_map.random_members")
    for cls in vars(probe_scheduler).values():
        if isinstance(cls, type) and issubclass(cls, probe_scheduler.ProbeScheduler):
            for hook in PROBE_SCHEDULER_HOOKS:
                if hook in vars(cls):
                    tracer.wrap(cls, hook, f"swim.probe_scheduler.{hook}",
                                family="swim.probe_scheduler")

    def queue_depth(args: Tuple[Any, ...], _result: Any) -> None:
        add_count("swim.broadcast.enqueued")
        maxima["swim.broadcast.max_depth"] = max(
            maxima["swim.broadcast.max_depth"], len(args[0]))

    tracer.count(BroadcastQueue, "enqueue", "broadcast.enqueue", measure=queue_depth)
    tracer.wrap(BroadcastQueue, "get_payloads", "swim.broadcast.get_payloads",
                measure=lambda _a, r: add_count("swim.broadcast.payloads", len(r)))

    tracer.wrap(SwimNode, "handle_packet", "swim.node.handle_packet")
    tracer.count(Suspicion, "__init__", "core.suspicion.started")
    tracer.count(Suspicion, "confirm", "suspicion.confirm",
                 measure=lambda _a, r: add_count("core.suspicion.confirmations",
                                                 bool(r)))

    def lhm_score(_args: Tuple[Any, ...], score: int) -> None:
        maxima["core.lhm.max_score"] = max(maxima["core.lhm.max_score"], score)

    for name in ("note", "note_all", "apply_delta"):
        tracer.count(LocalHealthMultiplier, name, f"lhm.{name}", measure=lhm_score)

    tracer.wrap(ZoneShard, "__init__", "zones.shard_build")
    tracer.wrap(ZoneShard, "start", "zones.shard_start")
    tracer.count(bridge.ZoneBridge, "receive", "zones.bridge_receives")

    # The pump's read callback is the transport's only receive entry
    # point; the event loop holds it, so members must be created after this.
    tracer.wrap(PacketPump, "_on_readable", "transport.on_readable",
                family="transport")
    tracer.wrap(PacketPump, "send", "transport.pump_send", family="transport")
    tracer.wrap(BatchedUdpTransport, "send_encoded", "transport.send_encoded",
                family="transport")
    tracer.wrap(http, "render_text", "ops.render_text")


def merge_summaries(
    summaries: Iterable[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = out.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                into[key] += value
    return out


def layer_metrics(
    summaries: List[Dict[str, Dict[str, float]]],
    counts: Dict[str, float],
    maxima: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from per-process span summaries and counters.

    Counters and maxima must already be combined across processes.
    """
    spans = merge_summaries(summaries)

    def calls(*names: str) -> float:
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def self_s(prefix: str) -> float:
        return sum(row["self_s"] for name, row in spans.items()
                   if name.startswith(prefix))

    def top_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("top_s", 0.0) for name in names)

    encodes = calls(*CODEC_ENCODES)
    # decode() re-enters itself for memoryview input; count packets once.
    decodes = spans.get("swim.codec.decode", {}).get("top_calls", 0)
    codec_self = self_s("swim.codec.")
    payload_calls = calls("swim.broadcast.get_payloads")
    queued_in = counts.get("sim.anomaly.queued_in", 0)
    out = {
        "sim.scheduler.events": calls("sim.event"),
        "sim.scheduler.scheduled": calls("sim.scheduler.call_at"),
        "sim.scheduler.self_s": self_s("sim.scheduler."),
        "sim.network.sends": calls("sim.network.inject"),
        "sim.network.bytes": counts.get("sim.network.bytes", 0),
        "sim.network.self_s": self_s("sim.network."),
        "sim.anomaly.windows": counts.get("sim.anomaly.windows", 0),
        "sim.anomaly.queued": queued_in + counts.get("sim.anomaly.queued_out", 0),
        # Inbound packets a blocked member never processed: tail-dropped,
        # or still queued when the run ended.
        "sim.anomaly.dropped": queued_in - calls("sim.network.deliver_now"),
        "swim.codec.encodes": encodes,
        "swim.codec.decodes": decodes,
        "swim.codec.bytes_encoded": counts.get("swim.codec.bytes_encoded", 0),
        "swim.codec.self_s": codec_self,
        "swim.codec.ns_per_op": (
            codec_self / (encodes + decodes) * 1e9 if encodes + decodes else 0.0
        ),
        "swim.member_map.adds": calls("swim.member_map.add"),
        "swim.member_map.add_s": top_s("swim.member_map.add"),
        "swim.member_map.merges": calls("swim.member_map.merge_claim"),
        "swim.member_map.merge_s": top_s(
            "swim.member_map.merge_claim", "swim.member_map.merge_remote_state",
            "swim.member_map.merge_remote_wire_state"),
        "swim.member_map.probe_target_s": top_s("swim.member_map.next_probe_target"),
        "swim.member_map.random_members_s": top_s("swim.member_map.random_members"),
        "swim.probe_scheduler.members_added": calls(
            "swim.probe_scheduler.on_member_added"),
        "swim.probe_scheduler.self_s": self_s("swim.probe_scheduler."),
        "swim.broadcast.enqueued": counts.get("swim.broadcast.enqueued", 0),
        "swim.broadcast.get_payloads_s": top_s("swim.broadcast.get_payloads"),
        "swim.broadcast.payloads_per_packet": (
            counts.get("swim.broadcast.payloads", 0) / payload_calls
            if payload_calls else 0.0
        ),
        "swim.broadcast.max_depth": maxima.get("swim.broadcast.max_depth", 0),
        "swim.node.packets": calls("swim.node.handle_packet"),
        "swim.node.handle_packet_self_s": self_s("swim.node.handle_packet"),
        "core.suspicion.started": counts.get("core.suspicion.started", 0),
        "core.suspicion.confirmations": counts.get("core.suspicion.confirmations", 0),
        "core.lhm.max_score": maxima.get("core.lhm.max_score", 0),
        "zones.bridge_receives": counts.get("zones.bridge_receives", 0),
        "transport.self_s": self_s("transport."),
    }
    return out
