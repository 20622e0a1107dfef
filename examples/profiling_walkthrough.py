"""Profile a registered scenario and print its hottest code paths.

The companion walkthrough to docs/performance.md: before optimizing
anything, measure — the simulation hot path has been rebuilt around what
profiles like this one showed (event dispatch, timeout churn, the OSS idle
wait), and the next speedup should start the same way.

Usage::

    PYTHONPATH=src python examples/profiling_walkthrough.py
    PYTHONPATH=src python examples/profiling_walkthrough.py client-swarm n_clients=200
    PYTHONPATH=src python examples/profiling_walkthrough.py multiost n_osts=8 duration=1.0

The first argument is any registered scenario name (see
``python -m repro.experiments list``); the rest are ``key=value`` factory
overrides.  Output: wall time, events/sec, simulated-sec per wall-sec, and
the top-10 functions by cumulative profile time.

After changing hot-path code, hold both lines: re-run
``python benchmarks/regression.py --quick`` (speed) and the tier-1 tests
(determinism — the event-trace tests fail if a single dispatch moved).
"""

import cProfile
import pstats
import sys
import time

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.scenarios import REGISTRY


def parse_value(raw: str):
    """CLI override values: int → float → bool → string, like `--param`."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def main(argv) -> int:
    name = argv[0] if argv else "quickstart"
    params = {}
    for raw in argv[1:]:
        key, _, value = raw.partition("=")
        if not _:
            raise SystemExit(f"override {raw!r} is not key=value")
        params[key] = parse_value(value)

    spec = REGISTRY.build(name, **params)
    print(f"profiling scenario {name!r}: {spec.description}")

    # Build outside the profile: we want the simulation hot path, not
    # scenario materialization, to dominate the report.
    cluster = build(spec)
    env = cluster.env

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = execute(cluster)
    profiler.disable()
    wall = time.perf_counter() - start

    print(
        f"\n{env.scheduled:,} events in {wall:.3f}s wall "
        f"({env.scheduled / wall:,.0f} events/s, "
        f"{env.now / wall:.2f} simulated-s per wall-s, "
        f"aggregate {result.summary.aggregate_mib_s:.0f} MiB/s)\n"
    )

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print("top-10 by cumulative time (see docs/performance.md for how the")
    print("current hot-path design answers what earlier profiles showed):\n")
    stats.print_stats(10)

    print(
        "next: `python benchmarks/regression.py --quick` gates any change\n"
        "against benchmarks/baselines.json; docs/performance.md covers\n"
        "reading BENCH_engine.json and updating the baselines."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
