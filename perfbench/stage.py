"""Run one ``scdr`` CLI invocation in this process, as a user's ``scdr <args>`` would.

Usage::

    python3 perfbench/stage.py PROBE_PATH [--trace TRACE_PATH STAGE] <scdr arguments>

The program is imported from ``src/`` of the checkout this file sits in,
never from an installed copy. A speed probe runs beside the invocation and
its mean speed is written to PROBE_PATH as JSON when the invocation ends. With
``--trace`` the public functions of the scdr modules are also wrapped (see
``spans.py``) and the spans are written to TRACE_PATH. The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"

# distinct from the CLI's own codes 0/2/3/4 and from an uncaught exception's 1
NO_PROGRAM = 125

PROBE_EVERY_S = 0.025
PROBE_ITERS = 4_000
GATHER_SIZE = 1 << 19  # 4 MB of float64, more than a core's L2 cache
# On a shared machine the processor's speed for one process swings by 1.5x
# within seconds, which no number of repeats in a run averages out. The
# benchmark scales each stage's wall time to the speed at which each probe
# loop takes its time here: its thread CPU time in the fast state of a
# 2-vCPU Xeon at 2.1 GHz.
PROBE_REF_S = {"interp": 0.0011, "gather": 0.00079, "small_numpy": 0.00083}


class SpeedProbe:
    """Times three fixed loops in turn, one every ``PROBE_EVERY_S``, on a background thread.

    A loop's thread CPU time tracks how fast the processor runs this process
    right now. No one loop tracks the stages alone: a neighbour that
    contends for the caches slows an in-cache interpreter loop less than it
    slows the stages. So the loops are an interpreter loop, a gather from an
    array larger than L2, and small numpy operations like the trainers'
    kernels, and the speed is the geometric mean of the three. In a test of
    four runs of each workload, this cut the standard deviation of stage
    times left after scaling from 7.5% (the interpreter loop alone) to
    4.6%. The thread costs the invocation about 4% of its time.
    """

    def __init__(self):
        self.loops = probe_loops()
        self.samples: dict[str, list[float]] = {name: [] for name in self.loops}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        names = list(self.loops)
        k = 0
        while not self._stop.wait(PROBE_EVERY_S):
            name = names[k % len(names)]
            self.samples[name].append(self.loops[name]())
            k += 1

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> float:
        """Stop the thread and return the invocation's mean speed relative to ``PROBE_REF_S``.

        Samples are evenly spaced in time and speed is the reciprocal of the
        loop time, so each loop's mean speed is the harmonic mean of its samples.
        """
        self._stop.set()
        self._thread.join()
        ratios = [PROBE_REF_S[name] / self.loop_s(name) for name in self.loops]
        return statistics.geometric_mean(ratios)

    def loop_s(self, name: str) -> float:
        return statistics.harmonic_mean(self.samples[name] or [self.loops[name]()])


def probe_loops() -> dict[str, Callable[[], float]]:
    """The probe loops by name; each returns its own thread CPU time."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.random(GATHER_SIZE)
    index = rng.integers(0, GATHER_SIZE, 20_000)
    block = np.ones((256, 10))

    def interp() -> float:
        t0 = time.thread_time()
        acc, scratch = 0, {}
        for i in range(PROBE_ITERS):
            acc += i * i
            scratch[i & 255] = (str(i), float(i))
        return time.thread_time() - t0

    def gather() -> float:
        t0 = time.thread_time()
        for _ in range(10):
            table[index].sum()
        return time.thread_time() - t0

    def small_numpy() -> float:
        t0 = time.thread_time()
        for _ in range(60):
            y = block * 0.5 + block
            np.sqrt((y * y).sum(axis=1))
        return time.thread_time() - t0

    return {"interp": interp, "gather": gather, "small_numpy": small_numpy}


def run_cli(argv: list[str]) -> int:
    if not (SRC / "scdr" / "cli.py").is_file():
        print(f"error: no scdr sources under {SRC}", file=sys.stderr)
        return NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import scdr.cli

    if argv[:1] != ["--trace"]:
        return scdr.cli.main(argv)

    import scdr.analysis
    import scdr.data
    import scdr.factorization
    import scdr.mapping
    from spans import Tracer

    trace_path, stage, argv = argv[1], argv[2], argv[3:]
    tracer = Tracer(stage)
    tracer.install({
        "scdr.cli": scdr.cli,
        "scdr.data": scdr.data,
        "scdr.data.DomainDataset": scdr.data.DomainDataset,
        "scdr.factorization": scdr.factorization,
        "scdr.mapping": scdr.mapping,
        "scdr.analysis": scdr.analysis,
    })
    code = 1
    try:
        code = scdr.cli.main(argv)
    finally:
        tracer.dump(trace_path, code)
    return code


def main(argv: list[str]) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return run_cli(argv[1:])
    finally:
        speed = probe.stop()
        Path(argv[0]).write_text(json.dumps({
            "speed": speed,
            "loop_s": {name: probe.loop_s(name) for name in probe.loops},
            "samples": sum(map(len, probe.samples.values())),
        }), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
