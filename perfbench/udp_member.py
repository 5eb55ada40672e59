"""A live Lifeguard member for the ``udp_ping`` workload.

Creates a ``UdpMember`` on the batched transport with the admin API on,
starts it, and prints one JSON ready line (address, admin address,
backend, whether ``recvmmsg`` is in use, build and start seconds). It
runs until SIGTERM, or until its parent exits. With ``--trace PATH`` it
installs the layer wrappers before creating the member and writes its
spans to ``PATH`` on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

NAME = "bench-member"


async def serve(trace: str) -> None:
    tracer = None
    if trace:
        from perfbench.instrument import instrument
        from perfbench.tracing import Tracer

        tracer = Tracer()
        instrument(tracer)
    from repro.config import SwimConfig
    from repro.transport.udp import UdpMember

    config = SwimConfig.lifeguard(transport_backend="batched", admin_port=0)
    # Armed before the ready line: the benchmark may stop us right after it.
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    parent = os.getppid()
    t0 = time.perf_counter()
    member = await UdpMember.create(NAME, config, rng=random.Random(0))
    t1 = time.perf_counter()
    member.start()
    t2 = time.perf_counter()
    ready = {
        "name": NAME,
        "address": member.address,
        "admin": member.admin_address,
        "pid": os.getpid(),
        "backend": config.transport_backend,
        "uses_mmsg": bool(member.transport.pump.uses_mmsg),
        "probe_timeout": config.probe_timeout,
        "build_s": t1 - t0,
        "start_s": t2 - t1,
    }
    print(json.dumps(ready), flush=True)
    while not stop.is_set() and os.getppid() == parent:
        try:
            await asyncio.wait_for(stop.wait(), 0.5)
        except asyncio.TimeoutError:
            pass
    await member.stop()
    if tracer is not None:
        tracer.restore()
        tracer.dump(Path(trace))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default="", help="write spans to this file")
    asyncio.run(serve(parser.parse_args().trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
