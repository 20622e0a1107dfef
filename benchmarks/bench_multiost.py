"""Decentralization bench (paper §II-B) — our extension experiment E7.

Scales the number of OSTs (one independent AdapTBF controller each, files
placed round-robin) under a priority-skewed two-job contention workload and
verifies the paper's §II-B claim quantitatively: per-OST local fairness
composes into a global bandwidth split that tracks the priority ratio, with
no coordination and no loss of aggregate throughput.
"""

from repro.metrics.tables import format_table
from repro.scenarios import RunSpec, ScenarioSpec, TopologySpec, run_scenario
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20
PRIORITY_RATIO = 3  # job "big" has 3x the nodes of job "small"


def make_jobs(n_procs=8, volume=400 * MIB):
    return (
        JobSpec(
            job_id="big",
            nodes=PRIORITY_RATIO,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(volume)) for _ in range(n_procs)
            ),
        ),
        JobSpec(
            job_id="small",
            nodes=1,
            processes=tuple(
                ProcessSpec(SequentialWritePattern(volume)) for _ in range(n_procs)
            ),
        ),
    )


def run_sweep(ost_counts=(1, 2, 4, 8)):
    results = {}
    for n_osts in ost_counts:
        spec = ScenarioSpec(
            name="multiost",
            jobs=make_jobs(),
            topology=TopologySpec(
                n_osts=n_osts,
                capacity_mib_s=1024.0 / n_osts,  # constant total capacity
            ),
            run=RunSpec(duration_s=2.0),
        )
        results[n_osts] = run_scenario(spec)
    return results


def test_decentralized_scaling(benchmark, print_report):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for n_osts, result in results.items():
        big = result.summary.job("big")
        small = result.summary.job("small")
        rows.append(
            [
                n_osts,
                result.summary.aggregate_mib_s,
                big,
                small,
                big / small if small else float("inf"),
                result.ost_utilization,
            ]
        )
    print_report(
        format_table(
            [
                "OSTs",
                "aggregate MiB/s",
                "big MiB/s",
                "small MiB/s",
                "ratio",
                "mean util",
            ],
            rows,
            title=(
                "E7 (ours): decentralized AdapTBF over N OSTs, constant "
                "total capacity, priority ratio 3"
            ),
        )
    )

    aggregates = [r.summary.aggregate_mib_s for r in results.values()]
    for n_osts, result in results.items():
        big, small = result.summary.job("big"), result.summary.job("small")
        # Global split tracks priority on every cluster size ...
        assert 2.0 < big / small < 4.5, (n_osts, big / small)
    # ... and decentralization costs no aggregate throughput (within 15%).
    assert min(aggregates) > 0.85 * max(aggregates)
