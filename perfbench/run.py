"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints a human-readable report
followed, on the last line, by one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` repeats whole
experiments for about ``--seconds`` (at least one) with nothing patched
and reports the end-to-end metrics as medians. ``--trace 1`` runs one
untraced and one traced experiment and reports the per-layer metrics,
the tracing overhead, and the deterministic counts next to the
reference values recorded in ``perfbench/reference.json``.

Without ``--workload`` it runs every workload, each in a fresh process.
Run it from the root of a source checkout; it needs ``src/repro``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# Nothing below imports the program at module level, so these succeed even
# where src/ is missing and main() can refuse cleanly.
from perfbench import instrument, tracing, workloads  # noqa: E402
from perfbench.probe import SpeedProbe  # noqa: E402
from perfbench.stats import median, percentile, tail  # noqa: E402


def _median_of(exps: List[Dict[str, Any]], key: str) -> float:
    return median([exp[key] for exp in exps])


def _checks(exps: List[Dict[str, Any]]) -> List[Tuple[str, bool, str]]:
    return [check for exp in exps for check in exp.get("checks", [])]


def _print_checks(exps: List[Dict[str, Any]]) -> None:
    for name, ok, detail in _checks(exps):
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}"
              + (f" ({detail})" if detail else ""))


def _tail_line(label: str, values: List[float], unit: str) -> str:
    if not values:
        return f"  {label}: no samples"
    pct, value, count = tail(values)
    tail_text = f", p{pct:g} {value:.4f} {unit}" if pct is not None else ""
    return f"  {label}: p50 {median(values):.4f} {unit}{tail_text} (n={count})"


def _print_outcome(outcome: Dict[str, Any]) -> None:
    for key, value in outcome.items():
        if key == "detect_latencies_s":
            print(_tail_line("detection latency crash->FAILED (virtual)", value, "s"))
        elif key == "ack_latencies_ms":
            print(_tail_line("ack latency from due time", value, "ms"))
        elif key == "gen_late_ms":
            print(_tail_line("generator lateness", value, "ms"))
        elif key == "scrape_ms":
            print(_tail_line("scrape time", value, "ms"))
        elif key == "scrape_bytes":
            print(f"  scrape size: median {median(value):.0f} B (n={len(value)})")
        elif key == "transport":
            for name, figure in value.items():
                print(f"  {name}: {figure:.4f}")
        else:
            print(f"  {key}: {value}")


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics as medians over experiments."""
    workload = workloads.WORKLOADS[name]()
    workload.seconds = seconds
    workload.measuring = True
    exps = []
    started = time.perf_counter()
    setup_exps = []
    probe = SpeedProbe() if workload.probe_here else None
    with probe or contextlib.nullcontext():
        workload.probe = probe
        while len(exps) < workload.min_experiments or (
                workload.repeats and time.perf_counter() - started < seconds):
            exps.append(workload.experiment(seed))
        setups = [exp["setup_s"] for exp in exps if "setup_s" in exp]
        while len(setups) < workload.setup_samples:
            sample = workload.setup_once(seed)
            if isinstance(sample, tuple):
                sample, exp = sample
                setup_exps.append(exp)
            setups.append(sample)

    checked = exps + setup_exps
    metrics = {
        "wall_s": _median_of(exps, "wall_s"),
        "setup_s": median(setups),
        "peak_rss_mb": max(exp["peak_rss_mb"] for exp in checked),
        "cpu_us_per_event": _median_of(exps, "cpu_us_per_event"),
    }
    correct = all(ok for _, ok, _ in _checks(checked))
    attempted = sum(exp.attempted for exp in checked)
    failed = sum(exp.failed for exp in checked)

    print(f"workload {name}  seed {seed}  experiments {len(exps)}  "
          f"set-ups {len(setups)}  elapsed {time.perf_counter() - started:.1f} s")
    units = dict(workloads.END_TO_END)
    for metric, value in metrics.items():
        print(f"  {metric:<20s} {value:12.4f} {units[metric]}")
    kernels = [k for _, k in (workload.samples() or [(0.0, 0.0)])]
    print(f"  raw wall {_median_of(exps, 'raw_wall_s'):.4f} s; speed probe "
          f"{len(kernels)} samples, median kernel {median(kernels) * 1e3:.3f} ms "
          f"(reference {workloads.speed.REF_KERNEL_S * 1e3:.3f} ms)")
    if name == "udp_ping":
        exp = exps[0]
        print(f"  backend {exp['backend']}, recvmmsg {exp['uses_mmsg']}, "
              f"rate {workload.rate:.0f}/s open loop in bursts of "
              f"{workload.burst}, one socket; raw member CPU "
              f"{exp['raw_cpu_us_per_event']:.2f} us/ping, "
              f"{exp['outcome']['transport']['transport.dgrams_per_recv']:.2f} "
              f"datagrams per receive")
        print("  member CPU per ping by window (raw us x reference ratio): "
              + ", ".join(f"{raw:.2f} x {ratio:.3f}"
                          for raw, ratio in exp["cpu_windows"]))
    _print_outcome(exps[0].get("outcome", {}))
    _print_checks(checked)
    print(f"  operations attempted {attempted} failed {failed}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def _reference_lines(name: str, seed: int, counts: Dict[str, float]) -> None:
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    if seed != reference["seed"]:
        print(f"  reference counts are for seed {reference['seed']}; "
              f"not compared at seed {seed}")
        return
    expected = reference["workloads"].get(name, {})
    for key, value in counts.items():
        ref = expected.get(key)
        mark = "" if ref is None else ("  same" if ref == value else "  CHANGED")
        print(f"  count {key:<22s} {value:>12} reference {ref}{mark}")


def trace(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: per-layer metrics plus the tracing overhead."""
    workload = workloads.WORKLOADS[name]()
    workload.seconds = seconds
    plain = workload.experiment(seed)

    out_dir = workloads.OUT_DIR / name
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = tracing.Tracer(out_dir)
    if name != "udp_ping":
        # The udp member instruments its own process; the ping generator
        # here uses the codec too and must stay unpatched.
        instrument.instrument(tracer)
    try:
        traced = workload.experiment(seed, tracer)
    finally:
        tracer.restore()
    tracer.dump(out_dir / "spans-main.bin")

    summaries = [tracer.summary()]
    counts = dict(tracer.counts)
    maxima = dict(tracer.maxima)
    workers = []
    extra = sorted(out_dir.glob("spans-[0-9]*.bin"))
    if name == "udp_ping":
        extra = [workloads.OUT_DIR / f"{name}-member.bin"]
    for path in extra:
        header = tracing.load(path)
        summary = tracing.summarize(header["names"], *header["columns"])
        workers.append((header, summary))
        summaries.append(summary)
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in header["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    layers = instrument.layer_metrics(summaries, counts, maxima)
    span_count = len(tracer.starts) + sum(h["spans"] for h, _ in workers)

    def worker_top(span: str) -> float:
        return max((s.get(span, {}).get("top_s", 0.0) for _, s in workers),
                   default=0.0)

    outcome = traced.get("outcome", {})
    layers.update(dict.fromkeys(
        (metric for metric, _ in instrument.LAYER_METRICS if metric not in layers),
        0.0))
    layers.update(traced.get("zones", {}))
    layers.update(outcome.get("transport", {}))
    if name == "udp_ping":
        # The open loop lasts a fixed time; the member's CPU pays the cost.
        layers["trace.overhead_s"] = (
            traced["raw_cpu_us_per_event"] - plain["raw_cpu_us_per_event"]
        ) * traced["events"] / 1e6
    else:
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.spans"] = span_count
    if name == "zoned_16384":
        layers["zones.shard_start_s"] = worker_top("zones.shard_start")
        layers["phase.build_s"] = worker_top("zones.shard_build")
        layers["phase.start_s"] = layers["zones.shard_start_s"]
        layers["phase.run_s"] = (
            traced["wall_s"] - layers["phase.build_s"] - layers["phase.start_s"]
        )
        layers["sim.scheduler.events"] = traced["events"]
    else:
        for phase in ("build_s", "start_s", "run_s", "stop_s"):
            if phase in traced:
                layers[f"phase.{phase}"] = traced[phase]
    if "network_dropped" in traced:
        layers["sim.network.dropped"] = traced["network_dropped"]
    for key in ("fp_events", "fp_healthy_events", "detect_pairs", "msgs_per_member_s"):
        if key in outcome:
            layers[f"outcome.{key}"] = outcome[key]
    if name == "stress_lifeguard":
        latencies = sorted(outcome["detect_latencies_s"])
        layers["outcome.detect_p50_s"] = percentile(latencies, 50.0)
        layers["outcome.detect_p99_s"] = percentile(latencies, 99.0)
    if name == "udp_ping":
        latencies = sorted(outcome["ack_latencies_ms"])
        layers["outcome.ack_p50_ms"] = percentile(latencies, 50.0)
        layers["outcome.ack_p99_ms"] = percentile(latencies, 99.0)
        layers["udp.gen_late_ms"] = median(outcome["gen_late_ms"])
        layers["udp.gen_cpu_us_per_ping"] = outcome["gen_cpu_us_per_ping"]
        layers["ops.scrape_ms"] = median(outcome["scrape_ms"])
        layers["ops.scrape_bytes"] = median(outcome["scrape_bytes"])
        member = workers[0][1]
        # Everything the member does for a ping starts in the pump's read
        # callback; scrapes start in the admin server's render.
        covered = sum(member[span]["top_s"]
                      for span in ("transport.on_readable", "ops.render_text"))
        layers["udp.member_traced_us_per_ping"] = covered / traced["events"] * 1e6

    units = dict(instrument.LAYER_METRICS)
    print(f"workload {name}  seed {seed}  traced run "
          f"(untraced wall {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s)")
    for metric, _unit in instrument.LAYER_METRICS:
        print(f"  {metric:<36s} {layers[metric]:16.6f} {units[metric]}")
    _print_predictions(name, plain, traced, layers)
    ref_counts: Dict[str, float] = {"events": traced["events"]}
    if name == "stress_lifeguard":
        ref_counts.update(fp_events=outcome["fp_events"],
                          fp_healthy_events=outcome["fp_healthy_events"],
                          detect_pairs=outcome["detect_pairs"])
    if name == "zoned_16384":
        ref_counts.update(barrier_msgs=layers["zones.barrier_msgs"],
                          barrier_bytes=layers["zones.barrier_bytes"])
    if name != "udp_ping":
        _reference_lines(name, seed, ref_counts)
    exps = [plain, traced]
    _print_checks(exps)
    return {
        "correct": all(ok for _, ok, _ in _checks(exps)),
        "attempted": sum(exp.attempted for exp in exps),
        "failed": sum(exp.failed for exp in exps),
        "metrics": {
            metric: {"value": layers[metric], "unit": units[metric]}
            for metric, _ in instrument.LAYER_METRICS
        },
    }


def _print_predictions(
    name: str, plain: Dict[str, Any], traced: Dict[str, Any], layers: Dict[str, float]
) -> None:
    """The shares each workload was chosen to show."""
    if name in ("flat_1024", "stress_lifeguard"):
        add_s = layers["swim.member_map.add_s"]
        setup = layers["phase.build_s"] + layers["phase.start_s"]
        print(f"  prediction: MemberMap.add takes {add_s:.4f} s, "
              f"{100 * add_s / setup:.1f}% of the traced set-up ({setup:.4f} s) "
              f"and {100 * add_s / traced['wall_s']:.2f}% of the traced wall "
              f"({traced['wall_s']:.3f} s)")
    elif name == "zoned_16384":
        print(f"  prediction: barrier exchange is "
              f"{layers['zones.barrier_exchange_s']:.4f} s of "
              f"{plain['wall_s']:.3f} s wall "
              f"({100 * layers['zones.barrier_exchange_s'] / plain['wall_s']:.2f}%)")
    elif name == "udp_ping":
        per_ping = traced["raw_cpu_us_per_event"]
        covered = layers["udp.member_traced_us_per_ping"]
        print(f"  prediction: the receive path (PacketPump, node, codec) covers "
              f"{covered:.2f} us of {per_ping:.2f} us member CPU per ping in the "
              f"traced run ({100 * covered / per_ping:.1f}%; untraced "
              f"{plain['raw_cpu_us_per_event']:.2f} us)")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; returns the worst exit code."""
    worst = 0
    results = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode == 0 and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": len(results) == len(workloads.WORKLOADS)
        and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": figure for name, r in results.items()
                    for metric, figure in r["metrics"].items()},
    }))
    return worst


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run it from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    run = trace if args.trace else measure
    try:
        result = run(args.workload, args.seed, args.seconds)
    finally:
        workloads.stop_children()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
