"""The four benchmark workloads.

Each workload turns a seed into inputs, runs whole experiments through
the program's public API, checks their outputs, and returns the
end-to-end measurements plus the protocol outcomes. Given a tracer, an
experiment also writes the spans its other processes record.

Why these four:

* ``stress_lifeguard`` -- the paper's Figure 1 scenario with crashes on
  top: the protocol hot path under churn (node dispatch, codec,
  ``SimNetwork``, ``BroadcastQueue``, ``MemberMap`` merges, suspicion,
  LHM) while set-up is negligible.
* ``flat_1024`` -- a quiescent 1024-member group: the O(n^2) bootstrap
  (about a million ``MemberMap.add`` calls) and 1024-entry member tables.
* ``zoned_16384`` -- the only workload on ``repro.zones``: frames,
  ``BarrierRing``, bridges and the sharded master, one shard per core.
* ``udp_ping`` -- the only workload on real sockets (``PacketPump``,
  ``BatchedUdpTransport``, the admin API): an open loop of pings at a
  fixed rate against a live member. A ping acked later than the
  member's probe timeout is a probe SWIM would count as failed.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import gc
import os
import random
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import probe as speed
from perfbench import tracing
from perfbench.stats import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: (metric, unit) of every end-to-end metric, reported on every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_event", "us"),
)


class _Timed:
    """Turns raw intervals into reference seconds with a speed probe.

    Without a probe (the traced run) raw seconds are reported as they are.
    """

    probe: Optional[speed.SpeedProbe] = None
    #: Whether this process runs the speed probe while measuring.
    probe_here = True
    #: Whether experiments repeat while ``seconds`` lasts.
    repeats = True
    #: Experiments run however long they take.
    min_experiments = 1
    #: Set for the untraced, measured runs.
    measuring = False
    seconds = 10.0

    def samples(self) -> speed.Samples:
        """The speed samples the reported times were scaled by."""
        return self.probe.samples if self.probe is not None else []

    def ref_s(self, start: float, end: float) -> float:
        if self.probe is None:
            return end - start
        return speed.ref_seconds(self.probe.samples, start, end)

    def ref_ratio(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        if self.probe is None:
            return 1.0
        samples = self.probe.samples
        own = speed.probe_seconds(samples, start, end)
        return speed.ref_seconds(samples, start, end) / (end - start - own)

    def ref_cpu_s(self, cpu: float, start: float, end: float) -> float:
        """CPU seconds of this process over ``[start, end]``, probe
        excluded, in reference seconds."""
        if self.probe is None:
            return cpu
        own = speed.probe_seconds(self.probe.samples, start, end)
        return (cpu - own) * self.ref_ratio(start, end)


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Experiment(dict):
    """Measurements and check results of one experiment."""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.setdefault("checks", []).append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.get("checks", []))

    @property
    def attempted(self) -> int:
        """Operations attempted: the experiment itself unless it counts more."""
        return self.get("attempted", 1)

    @property
    def failed(self) -> int:
        """Operations failed: an experiment failing its checks fails once."""
        return self.get("failed", 0 if self.passed else 1)


# --------------------------------------------------------------------- #
# Simulator workloads
# --------------------------------------------------------------------- #


class _SimWorkload(_Timed):
    """A workload whose experiment runs in this process on one thread."""

    name = ""

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {}

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def drive(self, cluster: Any, inputs: Dict[str, Any]) -> None:
        raise NotImplementedError

    def judge(self, cluster: Any, inputs: Dict[str, Any], exp: Experiment) -> None:
        raise NotImplementedError

    def setup_once(self, seed: int) -> float:
        started = time.perf_counter()
        cluster = self.build(seed)
        cluster.start()
        elapsed = self.ref_s(started, time.perf_counter())
        del cluster
        gc.collect()
        return elapsed

    def experiment(self, seed: int, tracer: Optional[tracing.Tracer] = None) -> Experiment:
        inputs = self.inputs(seed)
        exp = Experiment()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        cluster = self.build(seed)
        t1 = time.perf_counter()
        cluster.start()
        t2 = time.perf_counter()
        self.drive(cluster, inputs)
        t3 = time.perf_counter()
        self.judge_live(cluster, inputs, exp)
        t4 = time.perf_counter()
        cluster.stop()
        t5 = time.perf_counter()
        cpu = self.ref_cpu_s(time.process_time() - cpu0, t0, t5)
        exp.update(
            wall_s=self.ref_s(t0, t3) + self.ref_s(t4, t5),
            raw_wall_s=(t3 - t0) + (t5 - t4),
            setup_s=self.ref_s(t0, t2),
            build_s=t1 - t0,
            start_s=t2 - t1,
            run_s=t3 - t2,
            stop_s=t5 - t4,
            events=cluster.scheduler.executed,
            cpu_us_per_event=cpu / cluster.scheduler.executed * 1e6,
        )
        net = cluster.network.stats
        exp["network_dropped"] = net.packets_lost + net.packets_cut
        exp["peak_rss_mb"] = peak_rss_mb_self()
        self.judge(cluster, inputs, exp)
        del cluster
        gc.collect()
        return exp

    def judge_live(self, cluster: Any, inputs: Dict[str, Any], exp: Experiment) -> None:
        """Checks that must see the cluster before it stops."""


class StressLifeguard(_SimWorkload):
    """Figure 1 on the flat simulator, plus crashes detected end to end."""

    name = "stress_lifeguard"
    setup_samples = 21
    n_members = 100
    quiesce = 15.0
    n_stressed = 8
    stress_duration = 300.0
    n_crashed = 14
    crash_every = 20.0
    tail = 10.0

    @property
    def end(self) -> float:
        return self.quiesce + self.stress_duration + self.tail

    def build(self, seed: int) -> Any:
        from repro.harness.configurations import make_config
        from repro.sim.runtime import SimCluster

        return SimCluster(
            n_members=self.n_members, config=make_config("Lifeguard"), seed=seed
        )

    def inputs(self, seed: int) -> Dict[str, Any]:
        from repro.sim.runtime import default_member_names

        rng = random.Random(seed)
        names = default_member_names(self.n_members)
        stressed = rng.sample(names, self.n_stressed)
        rest = [name for name in names if name not in stressed]
        crashed = rng.sample(rest, self.n_crashed)
        return {
            "stressed": stressed,
            "burst_seeds": [rng.getrandbits(64) for _ in stressed],
            "crash_at": {
                member: self.quiesce + self.crash_every * (index + 1)
                for index, member in enumerate(crashed)
            },
        }

    def drive(self, cluster: Any, inputs: Dict[str, Any]) -> None:
        cluster.run_for(self.quiesce)
        for member, burst_seed in zip(inputs["stressed"], inputs["burst_seeds"]):
            cluster.anomalies.cpu_stress(
                member, self.quiesce, self.stress_duration, random.Random(burst_seed)
            )
        # A crash is a block window that outlasts the run.
        for member, at in inputs["crash_at"].items():
            cluster.anomalies.block_window(member, at, self.end + 1.0)
        cluster.run_until(self.end)

    def judge(self, cluster: Any, inputs: Dict[str, Any], exp: Experiment) -> None:
        from repro.metrics.analysis import classify_false_positives
        from repro.swim.events import EventKind

        crash_at = inputs["crash_at"]
        anomalous = set(inputs["stressed"]) | set(crash_at)
        healthy = [name for name in cluster.names if name not in anomalous]
        fp = classify_false_positives(
            cluster.event_log.events, anomalous, since=self.quiesce, until=self.end
        )
        detected: Dict[Tuple[str, str], float] = {}
        for event in cluster.event_log.events:
            at = crash_at.get(event.subject)
            if (event.kind is EventKind.FAILED and at is not None
                    and event.time >= at and event.observer not in anomalous):
                detected.setdefault((event.subject, event.observer), event.time - at)
        pairs = len(crash_at) * len(healthy)
        exp.check("every crash detected at every healthy observer",
                  len(detected) == pairs, f"{len(detected)}/{pairs} pairs")
        latencies = list(detected.values())
        exp["outcome"] = {
            "fp_events": fp.fp_events,
            "fp_healthy_events": fp.fp_healthy_events,
            "detect_pairs": len(detected),
            "detect_latencies_s": latencies,
            "msgs_per_member_s": cluster.telemetry().msgs_sent
            / self.n_members / self.end,
        }


class Flat1024(_SimWorkload):
    """A quiescent 1024-member Lifeguard group started from a full roster."""

    name = "flat_1024"
    setup_samples = 3
    min_experiments = 3
    n_members = 1024
    duration = 10.0

    def build(self, seed: int) -> Any:
        from repro.config import SwimConfig
        from repro.sim.runtime import SimCluster

        return SimCluster(
            n_members=self.n_members, config=SwimConfig.lifeguard(), seed=seed
        )

    def drive(self, cluster: Any, inputs: Dict[str, Any]) -> None:
        cluster.run_for(self.duration)

    def judge_live(self, cluster: Any, inputs: Dict[str, Any], exp: Experiment) -> None:
        exp.check("all members converged alive", cluster.all_converged_alive())

    def judge(self, cluster: Any, inputs: Dict[str, Any], exp: Experiment) -> None:
        from repro.swim.events import EventKind

        bad = sum(1 for event in cluster.event_log.events
                  if event.kind in (EventKind.SUSPECTED, EventKind.FAILED))
        exp.check("no SUSPECTED or FAILED event", bad == 0, f"{bad} raised")
        exp["outcome"] = {
            "msgs_per_member_s": cluster.telemetry().msgs_sent
            / self.n_members / self.duration,
        }


# --------------------------------------------------------------------- #
# Zoned workload
# --------------------------------------------------------------------- #


def child_pids() -> List[int]:
    """Pids of this process's live children, from every thread."""
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as src:
                pids.extend(int(pid) for pid in src.read().split())
        except OSError:
            continue
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``run_zoned``'s shared-memory rings start the stdlib resource tracker,
    which ignores SIGTERM and would outlive this process; closing its pipe
    is how it is told to exit. Anything else still running is killed.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue


class _ChildPeakSampler:
    """Samples the peak RSS (VmHWM) of this process's live children."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peaks_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "_ChildPeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in child_pids():
                try:
                    with open(f"/proc/{pid}/status") as src:
                        for line in src:
                            if line.startswith("VmHWM:"):
                                kb = int(line.split()[1])
                                self.peaks_kb[pid] = max(self.peaks_kb.get(pid, 0), kb)
                                break
                except OSError:
                    continue

    @property
    def total_mb(self) -> float:
        return sum(self.peaks_kb.values()) / 1024.0


class Zoned16384(_Timed):
    """16384 members in 64 zones on the sharded driver, one shard per core."""

    name = "zoned_16384"
    setup_samples = 1
    n_members = 16384
    zone_count = 64
    duration = 4.0
    shards = 2
    # The master mostly waits; the shards' own probes sample the cores the
    # work runs on.
    probe_here = False

    def __init__(self) -> None:
        self.worker_probes = speed.WorkerProbes(OUT_DIR / "zoned-probes")
        self.worker_samples: speed.Samples = []

    def samples(self) -> speed.Samples:
        return self.worker_samples

    def _scale(self, raw_cpu: float, start: float, end: float) -> Tuple[float, float]:
        """Wall and CPU seconds of ``[start, end]`` in reference seconds,
        each worker's probe time excluded, by the mean of the workers'
        reference-to-wall ratios."""
        streams = self.worker_probes.streams() if self.measuring else []
        if not streams:
            return end - start, raw_cpu
        self.worker_samples = sorted(sample for stream in streams for sample in stream)
        own = [speed.probe_seconds(stream, start, end) for stream in streams]
        ratio = statistics.fmean(
            speed.ref_seconds(stream, start, end) / (end - start - seconds)
            for stream, seconds in zip(streams, own)
        )
        return ((end - start - statistics.fmean(own)) * ratio,
                (raw_cpu - sum(own)) * ratio)

    def _run(self, seed: int, duration: float) -> Tuple[Any, Experiment]:
        from repro.config import SwimConfig
        from repro.zones.sharded import run_zoned

        config = SwimConfig.lifeguard()
        exp = Experiment()
        cpu0 = time.process_time() + _children_cpu_s()
        probes = self.worker_probes if self.measuring else contextlib.nullcontext()
        with _ChildPeakSampler() as sampler, probes:
            t0 = time.perf_counter()
            result = run_zoned(
                self.n_members, config, seed=seed, zone_count=self.zone_count,
                duration=duration, shards=self.shards,
            )
            t1 = time.perf_counter()
        wall, cpu = self._scale(time.process_time() + _children_cpu_s() - cpu0, t0, t1)
        expected = round(duration / config.cross_zone_interval)
        exp.check(f"no member events in {duration:g} s", result.events == 0,
                  f"{result.events} events")
        exp.check(f"{expected} barriers", result.barriers == expected,
                  f"{result.barriers} barriers")
        exp.update(
            wall_s=wall,
            raw_wall_s=t1 - t0,
            events=result.executed,
            cpu_s=cpu,
            peak_rss_mb=peak_rss_mb_self() + sampler.total_mb,
            worker_rss_mb=sorted(v / 1024.0 for v in sampler.peaks_kb.values()),
        )
        return result, exp

    def setup_once(self, seed: int) -> Tuple[float, Experiment]:
        """Set-up is a zero-length run: fork, build, start and tear down."""
        _result, exp = self._run(seed, 0.0)
        return exp["wall_s"], exp

    def experiment(self, seed: int, tracer: Optional[tracing.Tracer] = None) -> Experiment:
        result, exp = self._run(seed, self.duration)
        exp["cpu_us_per_event"] = exp["cpu_s"] / result.executed * 1e6
        exp["zones"] = {
            "zones.barriers": result.barriers,
            "zones.barrier_msgs": result.barrier_msgs,
            "zones.barrier_bytes": result.barrier_bytes,
            "zones.barrier_exchange_s": result.barrier_exchange_s,
            "zones.barrier_overflows": result.barrier_overflows,
        }
        exp["outcome"] = {}
        return exp


# --------------------------------------------------------------------- #
# Live UDP workload
# --------------------------------------------------------------------- #


class _Member:
    """A ``UdpMember`` in its own process, started by ``udp_member.py``."""

    def __init__(self, trace_path: Optional[Path] = None) -> None:
        import json

        command = [sys.executable, str(ROOT / "perfbench" / "udp_member.py")]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, text=True
        )
        try:
            line = self._readline(timeout=60.0)
            self.ready = json.loads(line)
        except Exception:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.spawned

    def _readline(self, timeout: float) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("member did not report ready in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"member exited early (code {self.proc.wait()})")
        return line

    def cpu_s(self) -> float:
        """The member's on-CPU time, summed over its live threads.

        ``schedstat`` counts nanoseconds; ``utime``/``stime`` in ``stat``
        count 10 ms ticks, a 0.5% step in a 5-second window.
        """
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/schedstat") as src:
                total += int(src.read().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as src:
            for line in src:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> float:
        """SIGTERM the member, wait for it; returns spawn-to-exit seconds."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30.0)
        finally:
            self.kill()
        exited = time.perf_counter() - self.spawned
        if self.proc.returncode != 0:
            raise RuntimeError(f"member exited with code {self.proc.returncode}")
        return exited

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class _Scraper(threading.Thread):
    """GETs ``/metrics`` once a second, as an operator's scraper would."""

    def __init__(self, admin: str, interval: float = 1.0) -> None:
        super().__init__(daemon=True)
        self.url = f"http://{admin}/metrics"
        self.interval = interval
        self.times_ms: List[float] = []
        self.sizes: List[int] = []
        self.last = ""
        self._halt = threading.Event()

    def scrape(self) -> None:
        started = time.perf_counter()
        with urllib.request.urlopen(self.url, timeout=5.0) as response:
            body = response.read()
        self.times_ms.append((time.perf_counter() - started) * 1e3)
        self.sizes.append(len(body))
        self.last = body.decode()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.scrape()

    def stop(self) -> None:
        self._halt.set()
        self.join()


def _prom_samples(text: str, family: str) -> List[Tuple[Dict[str, str], float]]:
    """``(labels, value)`` of every sample named ``family`` in ``text``."""
    out = []
    for line in text.splitlines():
        if not line.startswith(family):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        if name != family:
            continue
        parsed = {}
        for pair in labels.rstrip("}").split(","):
            if "=" in pair:
                key, _, val = pair.partition("=")
                parsed[key] = val.strip('"')
        out.append((parsed, float(value)))
    return out


def transport_counters(text: str) -> Dict[str, float]:
    """The member's transport syscall and batch figures from a scrape."""
    out: Dict[str, float] = {}
    for direction in ("send", "recv"):
        def pick(family: str) -> float:
            return sum(value for labels, value in _prom_samples(text, family)
                       if labels.get("direction") == direction)

        calls = pick("lifeguard_transport_syscalls_total")
        batch_sum = pick("lifeguard_transport_batch_size_sum")
        batch_count = pick("lifeguard_transport_batch_size_count")
        out[f"transport.{direction}_syscalls"] = calls
        out[f"transport.dgrams_per_{direction}"] = (
            batch_sum / batch_count if batch_count else 0.0
        )
    return out


class _Iovec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


class _Msghdr(ctypes.Structure):
    _fields_ = [
        ("name", ctypes.c_void_p), ("namelen", ctypes.c_uint32),
        ("iov", ctypes.c_void_p), ("iovlen", ctypes.c_size_t),
        ("control", ctypes.c_void_p), ("controllen", ctypes.c_size_t),
        ("flags", ctypes.c_int),
    ]


class _Mmsghdr(ctypes.Structure):
    _fields_ = [("hdr", _Msghdr), ("len", ctypes.c_uint)]


class BurstSender:
    """Sends a burst of datagrams on a connected UDP socket in one
    ``sendmmsg`` call, so the whole burst is queued at the receiver when it
    wakes. Sent one ``sendto`` at a time, a burst trickled in over tens of
    microseconds and each receive read a varying part of it."""

    def __init__(self, sock: socket.socket, size: int) -> None:
        self.sock = sock
        self._sendmmsg = ctypes.CDLL(None, use_errno=True).sendmmsg
        self._sendmmsg.argtypes = [ctypes.c_int, ctypes.c_void_p, ctypes.c_uint,
                                   ctypes.c_int]
        self._sendmmsg.restype = ctypes.c_int
        self._iov = (_Iovec * size)()
        self._msgs = (_Mmsghdr * size)()
        for msg, iov in zip(self._msgs, self._iov):
            msg.hdr.iov = ctypes.addressof(iov)
            msg.hdr.iovlen = 1

    def send(self, payloads: List[bytes]) -> None:
        buffers = [ctypes.create_string_buffer(payload, len(payload))
                   for payload in payloads]
        for iov, buffer in zip(self._iov, buffers):
            iov.base = ctypes.addressof(buffer)
            iov.len = len(buffer)
        done = 0
        while done < len(buffers):
            sent = self._sendmmsg(
                self.sock.fileno(),
                ctypes.addressof(self._msgs) + done * ctypes.sizeof(_Mmsghdr),
                len(buffers) - done, 0,
            )
            if sent < 0:
                code = ctypes.get_errno()
                if code not in (errno.EAGAIN, errno.EINTR):
                    raise OSError(code, os.strerror(code))
                select.select([], [self.sock], [])
                continue
            done += sent


class UdpPing(_Timed):
    """An open loop of pings at a fixed rate against a live member."""

    name = "udp_ping"
    setup_samples = 7
    rate = 10_000.0
    #: Pings sent back to back at each due time.
    burst = 8
    #: Member CPU per ping is the median over windows of this length.
    window_s = 1.0
    # One open loop of ``seconds``. The probe runs in this generator, not
    # in the member: in the mostly idle member it read 0.77-0.98 ms across
    # runs whose raw CPU per ping stayed within 36-40 us.
    repeats = False

    def _spawn(self, trace_path: Optional[Path] = None) -> Tuple["_Member", float]:
        """A started member and its spawn-to-ready reference seconds."""
        member = _Member(trace_path)
        return member, self.ref_s(member.spawned, member.spawned + member.ready_s)

    def setup_once(self, seed: int) -> float:
        member, ready_s = self._spawn()
        member.stop()
        return ready_s

    def experiment(self, seed: int, tracer: Optional[tracing.Tracer] = None) -> Experiment:
        from repro.swim import codec
        from repro.swim.messages import Ack, Compound, Ping

        exp = Experiment()
        trace_path = OUT_DIR / f"{self.name}-member.bin" if tracer is not None else None
        member, ready_s = self._spawn(trace_path)
        try:
            host, port = member.ready["address"].rsplit(":", 1)
            target = (host, int(port))
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            sock.bind(("127.0.0.1", 0))
            sock.connect(target)
            sock.setblocking(False)
            sender = BurstSender(sock, self.burst)
            source = "%s:%d" % sock.getsockname()
            count = int(self.rate * self.seconds)
            due_at: Dict[int, float] = {}
            latency: List[float] = []
            late_s: List[float] = []
            bad = {"undecodable": 0, "unknown seq": 0, "duplicate": 0}
            acked = set()
            name = member.ready["name"]
            scraper = _Scraper(member.ready["admin"])
            scraper.start()
            rng = random.Random(seed)
            base_seq = rng.getrandbits(31)

            def drain() -> None:
                while True:
                    try:
                        data = sock.recv(65536)
                    except BlockingIOError:
                        return
                    arrived = time.perf_counter()
                    try:
                        message = codec.decode(data)
                    except codec.CodecError:
                        bad["undecodable"] += 1
                        continue
                    parts = message.parts if isinstance(message, Compound) else (message,)
                    for part in parts:
                        if not isinstance(part, Ack):
                            continue
                        seq = part.seq_no
                        if seq in acked:
                            bad["duplicate"] += 1
                        elif seq not in due_at:
                            bad["unknown seq"] += 1
                        else:
                            acked.add(seq)
                            latency.append(arrived - due_at[seq])

            member_cpu0 = member.cpu_s()
            gen_cpu0 = time.process_time()
            window_start = time.perf_counter()
            start = window_start + 0.01
            period = self.burst / self.rate
            sent = 0
            # (time, member CPU, pings sent) at each window boundary.
            marks = [(window_start, member_cpu0, 0)]
            while sent < count:
                now = time.perf_counter()
                if now >= marks[-1][0] + self.window_s:
                    marks.append((now, member.cpu_s(), sent))
                while sent < count and start + sent // self.burst * period <= now:
                    due = start + sent // self.burst * period
                    seqs = range(base_seq + sent,
                                 base_seq + min(sent + self.burst, count))
                    sender.send([codec.encode(Ping(seq, name, source))
                                 for seq in seqs])
                    due_at.update(dict.fromkeys(seqs, due))
                    late_s.append(time.perf_counter() - due)
                    sent += len(seqs)
                drain()
                wait = start + sent // self.burst * period - time.perf_counter()
                if wait > 0:
                    select.select([sock], [], [], wait)
            # The member's own probe timeout: a later ack is a failed probe.
            probe_timeout = member.ready["probe_timeout"]
            deadline = time.perf_counter() + probe_timeout
            while len(acked) < count and time.perf_counter() < deadline:
                select.select([sock], [], [], 0.01)
                drain()
            gen_cpu = time.process_time() - gen_cpu0
            member_cpu = member.cpu_s() - member_cpu0
            window_end = time.perf_counter()
            if len(marks) > 1:
                marks.pop()  # the last, partial window joins the one before
            marks.append((window_end, member_cpu0 + member_cpu, count))
            if self.probe is not None:
                gen_cpu -= speed.probe_seconds(self.probe.samples, window_start,
                                               window_end)
            scraper.stop()
            scraper.scrape()
            sock.close()
            peak = member.peak_rss_mb()
        finally:
            wall = member.stop() if member.proc.poll() is None else None
        timely = sum(1 for value in latency if value <= probe_timeout)
        # (raw member CPU us per ping, reference-to-wall ratio) per window.
        windows = [((c1 - c0) / (n1 - n0) * 1e6, self.ref_ratio(t0, t1))
                   for (t0, c0, n0), (t1, c1, n1) in zip(marks, marks[1:])]
        exp.check("every ack decodes, matches an outstanding ping, arrives once",
                  not any(bad.values()),
                  ", ".join(f"{k}={v}" for k, v in bad.items()))
        exp.update(
            wall_s=wall,
            setup_s=ready_s,
            peak_rss_mb=peak,
            events=count,
            attempted=count,
            failed=count - timely,
            raw_wall_s=wall,
            cpu_windows=windows,
            cpu_us_per_event=median([raw * ratio for raw, ratio in windows]),
            raw_cpu_us_per_event=member_cpu / count * 1e6,
            backend=member.ready["backend"],
            uses_mmsg=member.ready["uses_mmsg"],
            build_s=member.ready["build_s"],
            start_s=member.ready["start_s"],
            run_s=self.seconds,
        )
        exp["outcome"] = {
            "ack_latencies_ms": [value * 1e3 for value in latency],
            "gen_late_ms": [value * 1e3 for value in late_s],
            "gen_cpu_us_per_ping": gen_cpu / count * 1e6,
            "scrape_ms": scraper.times_ms,
            "scrape_bytes": scraper.sizes,
            "transport": transport_counters(scraper.last),
        }
        return exp


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "stress_lifeguard": StressLifeguard,
    "flat_1024": Flat1024,
    "zoned_16384": Zoned16384,
    "udp_ping": UdpPing,
}
