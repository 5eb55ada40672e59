"""Machine-speed probe for timing on a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of a
core drifts by tens of percent over seconds, so raw wall and CPU times
of one experiment spread more than the regressions they should catch.
The probe times a fixed pure-Python kernel every ``interval`` seconds
from a ``SIGALRM`` handler, which runs in the measured thread between
bytecodes, so it samples the speed of the core the workload is on while
the workload runs. :func:`ref_seconds` then rescales each
stretch of time between two samples to a reference core on which the
kernel takes ``REF_KERNEL_S``: the result is *reference seconds*. The
probe's own kernel time is excluded.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, List, Tuple

#: Kernel time, in seconds, on the reference core. This is about the
#: kernel's time on an otherwise idle 2.1 GHz Xeon core under CPython 3.11,
#: so reference seconds read close to wall seconds on a quiet machine.
REF_KERNEL_S = 0.0005

#: Neighbouring samples in the running median that smooths one sample's
#: own noise (a kernel run preempted or slowed by an interrupt).
_SMOOTH = 3


def kernel() -> None:
    """A fixed slice of dict-heavy interpreter work."""
    table: dict = {}
    for i in range(4000):
        table[i & 511] = table.get(i & 511, 0) + i


Samples = List[Tuple[float, float]]


class SpeedProbe:
    """Samples the kernel time every ``interval`` seconds of wall time."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        #: (start, kernel seconds) per sample, in ``perf_counter`` time.
        self.samples: Samples = []
        self._previous: Any = None

    def _sample(self, _signum: int, _frame: Any) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class WorkerProbes:
    """Speed probes in the processes ``multiprocessing`` forks while active.

    A forked child inherits no interval timer, so an after-fork hook starts
    a probe in each worker; its samples are written to
    ``<out_dir>/probe-<pid>.json`` when the worker exits.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.active = False
        mp_util.register_after_fork(self, WorkerProbes._after_fork)

    def __enter__(self) -> "WorkerProbes":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path in self.out_dir.glob("probe-*.json"):
            path.unlink()
        self.active = True
        return self

    def __exit__(self, *exc: Any) -> None:
        self.active = False

    def _after_fork(self) -> None:
        if not self.active:
            return
        probe = SpeedProbe().__enter__()
        path = self.out_dir / f"probe-{os.getpid()}.json"
        mp_util.Finalize(self, _dump_samples, args=(probe, path), exitpriority=10)

    def streams(self) -> List[Samples]:
        """The samples of each worker that has exited."""
        return [[(t, k) for t, k in json.loads(path.read_text())]
                for path in sorted(self.out_dir.glob("probe-*.json"))]


def _dump_samples(probe: SpeedProbe, path: Path) -> None:
    probe.__exit__()
    path.write_text(json.dumps(probe.samples))


def probe_seconds(samples: Samples, start: float, end: float) -> float:
    """Kernel time the probe itself spent inside ``[start, end]``."""
    return sum(k for t, k in samples if start <= t and t + k <= end)


def ref_seconds(samples: Samples, start: float, end: float) -> float:
    """``[start, end]`` minus probe time, in reference seconds.

    Each stretch between probe samples is scaled by ``REF_KERNEL_S / k``,
    where ``k`` is the running median of the kernel times around it.
    ``perf_counter`` is system-wide on Linux, so samples taken in another
    process scale that process's intervals.
    """
    inside = [(t, k) for t, k in samples if start <= t and t + k <= end]
    if not inside:
        # Too short to hold a sample: scale by the nearest samples.
        near = sorted(samples, key=lambda s: abs(s[0] - start))[: 2 * _SMOOTH + 1]
        if not near:
            raise RuntimeError("no speed-probe samples to scale by")
        return (end - start) * REF_KERNEL_S / statistics.median(k for _, k in near)
    kernels = [k for _, k in inside]
    total = 0.0
    cursor = start
    for index, (t, k) in enumerate(inside):
        window = kernels[max(0, index - _SMOOTH): index + _SMOOTH + 1]
        total += (t - cursor) * REF_KERNEL_S / statistics.median(window)
        cursor = t + k
    window = kernels[-(_SMOOTH + 1):]
    total += (end - cursor) * REF_KERNEL_S / statistics.median(window)
    return total
