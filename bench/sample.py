"""One benchmark sample, run in a fresh interpreter by run.py.

    PYTHONPATH=src python3 bench/sample.py --workload mvchar-a3 [--trace]

The sample times the package import plus the workload's set-up, empties every
library cache, times one call into the workload's public entry point, then
checks the result outside the timed region.  It prints one JSON line.

Times are reported at a nominal host speed.  On a VM that shares physical
cores with other tenants, a contended core runs the same Python code up to
twice as slowly, switching every second or so.  A probe thread times a fixed
loop every 10 ms; each interval's wall time is scaled by the mean of
NOMINAL_PROBE_S / probe time over the probes that fell inside it.  Most of
the drift in host contention cancels, and changes to the library do not; the
sample-to-sample noise stays.  The raw wall time is reported alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from tracing import PACKAGE, Tracer, is_time
from workloads import WORKLOADS

# Library caches keyed on datum content; a warm one would hide the cold cost.
COLD_CACHES = ("weyl.weyl_group", "mv_calculus.mv_calculus", "folding.fold", "folding.folded_weyl")
SPANS_DIR = Path(__file__).resolve().parent / "out"
PROBE_INTERVAL_S = 0.01
# Probe time in the thread on an uncontended core (2-vCPU Xeon VM, Python 3.11): the unit of scaled times.
NOMINAL_PROBE_S = 105e-6


def _probe_loop():
    """Fixed pure-Python work like linalg.mat_mul: five 4x4 integer products."""
    a = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 1))
    b = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1))
    for _ in range(5):
        bt = tuple(zip(*b))
        a = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 7 for col in bt) for row in a)
    return a


class HostSpeed:
    """Daemon thread timing _probe_loop every PROBE_INTERVAL_S while in the with block."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = clock()
            _probe_loop()
            self.probes.append((start, clock() - start))

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would have taken at the nominal host speed.

        An interval too short to hold a probe uses the first probe after it.
        """
        inside = [p for t, p in self.probes if start <= t <= end]
        if not inside:
            inside = [next(p for t, p in self.probes if t >= start)]
        return (end - start) * statistics.fmean(NOMINAL_PROBE_S / p for p in inside)


def _lru_caches():
    """Every functools.lru_cache wrapper bound in a module of the package."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attr, value in vars(mod).items():
                if callable(getattr(value, "cache_clear", None)):
                    found[f"{value.__module__.split('.')[-1]}.{value.__name__}"] = value
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--trace", action="store_true", help=f"record spans and counts; spans go to {SPANS_DIR}"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    host = HostSpeed()
    with host:
        report = _measure(workload, args.trace, host)
    print(json.dumps(report, sort_keys=True))
    return 0


def _measure(workload, traced: bool, host: HostSpeed) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    t0 = time.perf_counter()
    import satake_fold

    workload.setup()
    t1 = time.perf_counter()
    if not Path(satake_fold.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"satake_fold was imported from {satake_fold.__file__}, not from {src}")

    caches = _lru_caches()
    for cached in caches.values():
        cached.cache_clear()
    call, datum = workload.entry()
    cold = {name: caches[name].cache_info().currsize for name in COLD_CACHES}
    fresh_datum = datum is None or datum._cache == {}

    stdout = io.StringIO()
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(stdout):
        t2 = time.perf_counter()
        result = call()
        t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = workload.check(result, stdout.getvalue())
    checks["cold_caches"] = not any(cold.values()) and fresh_datum
    report = {
        "setup_s": host.scaled(t0, t1),
        "wall_s": host.scaled(t2, t3),
        "raw_wall_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "cache_sizes": cold,
        "fresh_datum": fresh_datum,
    }
    if tracer is not None:
        # Span times get the call's host-speed factor, so they add up to wall_s.
        factor = report["wall_s"] / report["raw_wall_s"]
        report["layers"] = {
            name: value * factor if is_time(name) else value for name, value in tracer.metrics().items()
        }
        report["layers"]["cli.stdout_bytes"] = len(stdout.getvalue().encode("utf-8"))
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"{workload.name}.spans.json")
    return report


if __name__ == "__main__":
    sys.exit(main())
