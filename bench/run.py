"""Cold-process benchmark of satake-fold's twisted, untwisted and folded pipelines.

    python3 bench/run.py --workload verify-d4-triality --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every sample is a fresh interpreter
(bench/sample.py), run one after another, so each timed call pays the cold
cost a command-line user pays.  With --trace 0 the run reports the medians of
wall_s, setup_s and peak_rss_mb; with --trace 1 it alternates untraced and
traced samples and reports the per-layer metrics named in BENCHMARK.json,
plus the tracing overhead.  Every sample's output is checked; the last line
of stdout is one JSON object, and a failed check makes the exit code 1.

The inputs are fixed per workload (baseline.json says why).  The seed draws
each sample's PYTHONHASHSEED and, in a traced run, which sample of each
untraced/traced pair goes first.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import is_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 60


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sample(workload: str, hash_seed: int, traced: bool) -> dict | None:
    """Run one sample process; None when it crashed or printed no report."""
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload}: sample exceeded {SAMPLE_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(f"{workload}: sample exited {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Correctness checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {name}\n")

    def add_sample(self, report: dict | None) -> bool:
        if report is None:
            self.add("sample completed", False)
            return False
        for name, ok in report["checks"].items():
            self.add(name, ok)
        return True


def _plain_run(workload: str, rng: random.Random, seconds: float, tally: Tally) -> dict:
    reports = []
    clock = _Deadline(seconds)
    while len(reports) < MIN_SAMPLES or clock.room_for_another():
        report = _sample(workload, rng.randrange(2**32), traced=False)
        clock.lap()
        if not tally.add_sample(report):
            break
        reports.append(report)
    measured = {"samples": len(reports)}
    if reports:
        for name in ("wall_s", "raw_wall_s", "setup_s", "peak_rss_mb"):
            measured[name] = statistics.median(r[name] for r in reports)
    return measured


def _traced_run(workload: str, rng: random.Random, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced samples; per-layer medians plus the overhead."""
    plain, traced = [], []
    clock = _Deadline(seconds)
    while len(traced) < 2 or clock.room_for_another():
        order = (False, True) if rng.random() < 0.5 else (True, False)
        reports = [_sample(workload, rng.randrange(2**32), traced=t) for t in order]
        clock.lap()
        if not all([tally.add_sample(r) for r in reports]):
            break
        for is_traced, report in zip(order, reports):
            (traced if is_traced else plain).append(report)
    measured = {"samples": len(traced)}
    if not traced:
        return measured
    first = traced[0]["layers"]
    for other in traced[1:]:
        tally.add(
            "traced counts repeat exactly",
            all(other["layers"][name] == value for name, value in first.items() if not is_time(name)),
        )
    for name, value in first.items():
        measured[name] = statistics.median(r["layers"][name] for r in traced) if is_time(name) else value
    measured["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    measured["host.slowdown"] = statistics.median(r["raw_wall_s"] / r["wall_s"] for r in plain)
    return measured


class _Deadline:
    """Start another sample only if one as long as the longest so far ends in time."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.last = time.perf_counter()
        self.longest = 0.0

    def lap(self) -> None:
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now

    def room_for_another(self) -> bool:
        return time.perf_counter() + self.longest <= self.end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "satake_fold" / "__init__.py").is_file():
        sys.stderr.write(f"no satake_fold sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose one of {', '.join(names)}\n")
        return 2

    # Compile the package once so no sample pays for writing bytecode.
    subprocess.run(
        [sys.executable, "-c", "import satake_fold"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        check=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    rng = random.Random(args.seed)
    tally = Tally()
    if args.trace:
        measured = _traced_run(args.workload, rng, args.seconds, tally)
        wanted = spec["per_layer"]
    else:
        measured = _plain_run(args.workload, rng, args.seconds, tally)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{args.workload} seed={args.seed} trace={args.trace} samples={measured.get('samples', 0)}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if "raw_wall_s" in measured:
        print(f"  {'raw_wall_s (unscaled, not a bound metric)':<40} {measured['raw_wall_s']:>14.6g} s")
    print(f"  {'fail_frac':<40} {fail_frac:>14.6g} ({tally.failed} of {tally.attempted} checks)")
    correct = tally.failed == 0 and all(m["name"] in measured for m in wanted)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
