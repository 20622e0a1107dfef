"""The paper's three evaluation scenarios (§IV-D, §IV-E, §IV-F).

Each function returns a :class:`Scenario` — job specs plus a suggested
duration — matching the published job mix.  Two knobs rescale the experiment
without changing its *shape*:

``data_scale``
    multiplies every volume (file sizes, burst sizes).  ``1.0`` is the
    paper's configuration (1 GiB files).
``time_scale``
    multiplies every delay/gap/duration (burst cadence, the 20/50/80 s
    §IV-F delays).

Scaling both by the same factor preserves each burst's size *relative to*
its period, which is what the control behaviour depends on; benches use
``data_scale = time_scale = 0.1``.

Substitution note (DESIGN.md §2): the paper's "continuous" jobs are 16
processes each writing a 1 GiB file, which on the CloudLab SATA-SSD OST
lasts the whole experiment.  Our simulated OST's speed is configurable, so
the continuous jobs are instead sized from ``capacity_hint_mib_s ×
duration`` — same role (demand that outlives the observation window),
substrate-appropriate volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.workloads.patterns import (
    BurstPattern,
    DelayedContinuousPattern,
    SequentialWritePattern,
)
from repro.workloads.spec import JobSpec, ProcessSpec
from repro.sim.rng import RngStreams

__all__ = [
    "BENCH_SCALE",
    "ScenarioConfig",
    "Scenario",
    "scenario_allocation",
    "scenario_redistribution",
    "scenario_recompensation",
    "scenario_burst_storm",
    "scenario_elastic_churn",
    "require_finite_positive",
]

GIB = 1 << 30
MIB = 1 << 20

#: The repository's reduced "bench" scale: 1/10 data, 1/10 time (see
#: ``repro.experiments.common.bench_scale``).  Registered scenario factories
#: and the figure adapters share this one constant.
BENCH_SCALE = 0.1


def require_finite_positive(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming parameter ``name`` unless ``value`` is
    finite and positive.

    Scales and volumes are checked this way before any ``int()`` of them,
    which raises ``OverflowError`` for ``inf`` and, for ``nan``, a message
    that names no parameter.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Scale knobs shared by all scenario constructors."""

    data_scale: float = 1.0
    time_scale: float = 1.0
    heavy_procs: int = 16  # processes in the paper's "16 process" jobs
    window: int = 8  # RPCs in flight per process
    #: OST bandwidth the experiment will run against; used only to size the
    #: continuous jobs so they span the observation window.
    capacity_hint_mib_s: float = 1024.0

    def __post_init__(self) -> None:
        require_finite_positive("data_scale", self.data_scale)
        require_finite_positive("time_scale", self.time_scale)
        if self.heavy_procs <= 0 or self.window <= 0:
            raise ValueError("heavy_procs and window must be positive")
        require_finite_positive("capacity_hint_mib_s", self.capacity_hint_mib_s)

    def bytes_(self, paper_bytes: float) -> int:
        """Scale a paper-configuration volume, ≥ 1 MiB to stay meaningful."""
        return max(MIB, int(paper_bytes * self.data_scale))

    def secs(self, paper_seconds: float) -> float:
        return paper_seconds * self.time_scale

    def continuous_bytes_per_proc(
        self, duration_s: float, procs: int, saturation: float = 1.25
    ) -> int:
        """Volume that keeps ``procs`` writers busy for ``duration_s``."""
        total = self.capacity_hint_mib_s * MIB * duration_s * saturation
        return max(MIB, int(total / procs))


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run job mix."""

    name: str
    jobs: List[JobSpec]
    #: Cap on simulated duration; None = run until all jobs complete.
    duration_s: Optional[float]
    description: str = ""

    @property
    def nodes(self) -> Dict[str, int]:
        return {job.job_id: job.nodes for job in self.jobs}


def scenario_allocation(cfg: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """§IV-D: four identical I/O-intensive jobs, priorities 10/10/30/50 %.

    Each job runs ``heavy_procs`` processes writing a private (scaled) 1 GiB
    file sequentially.  Higher-priority jobs receive more bandwidth under
    priority-aware control and therefore finish earlier, producing the
    shrinking active set the experiment is about.
    """
    file_bytes = cfg.bytes_(1 * GIB)
    jobs = []
    for idx, nodes in enumerate((1, 1, 3, 5), start=1):
        processes = tuple(
            ProcessSpec(SequentialWritePattern(file_bytes), window=cfg.window)
            for _ in range(cfg.heavy_procs)
        )
        jobs.append(JobSpec(job_id=f"job{idx}", nodes=nodes, processes=processes))
    return Scenario(
        name="allocation",
        jobs=jobs,
        duration_s=None,
        description=(
            "4 identical sequential-write jobs, priorities 10/10/30/50%; "
            "runs until all complete"
        ),
    )


def scenario_redistribution(
    cfg: ScenarioConfig = ScenarioConfig(),
) -> Scenario:
    """§IV-E: three high-priority bursty jobs vs one low-priority hog.

    Jobs 1–3 (30 % each): 2 processes issuing periodic short bursts
    (write-then-sleep) with per-job volumes/gaps chosen to interleave on
    the server.  Job 4 (10 %): ``heavy_procs`` processes with continuous
    demand from t=0 that outlives the observation window.
    """
    duration = cfg.secs(60.0)
    burst_params = [  # (burst MiB, gap s, first-burst delay s)
        (96, 4.0, 0.0),
        (128, 5.0, 1.3),
        (64, 3.5, 2.1),
    ]
    jobs = []
    for idx, (mib, gap, delay) in enumerate(burst_params, start=1):
        gap_s = cfg.secs(gap)
        count = max(2, int((duration - cfg.secs(delay)) / gap_s))
        processes = tuple(
            ProcessSpec(
                BurstPattern(
                    burst_bytes=cfg.bytes_(mib * MIB),
                    interval_s=gap_s,
                    count=count,
                    # The second process is offset half a period so the two
                    # streams interleave, as the paper's Filebench setup does.
                    start_delay_s=cfg.secs(delay) + proc * gap_s / 2,
                ),
                window=cfg.window,
            )
            for proc in range(2)
        )
        jobs.append(JobSpec(job_id=f"job{idx}", nodes=3, processes=processes))

    hog_bytes = cfg.continuous_bytes_per_proc(duration, cfg.heavy_procs)
    hog = JobSpec(
        job_id="job4",
        nodes=1,
        processes=tuple(
            ProcessSpec(SequentialWritePattern(hog_bytes), window=cfg.window)
            for _ in range(cfg.heavy_procs)
        ),
    )
    jobs.append(hog)
    return Scenario(
        name="redistribution",
        jobs=jobs,
        duration_s=duration,
        description=(
            "jobs 1-3: high priority (30%), interleaved periodic bursts; "
            "job 4: low priority (10%), continuous 16-process stream"
        ),
    )


def scenario_recompensation(
    cfg: ScenarioConfig = ScenarioConfig(),
) -> Scenario:
    """§IV-F: equal priorities; delayed continuous streams trigger reclaim.

    All four jobs have 25 % priority.  Jobs 1–3 run one small-burst process
    (constant gap, volumes differing per job — job 3's bursts are the
    smallest) plus one continuous process delayed by 20/50/80 s.  Job 4 runs
    ``heavy_procs`` continuous processes from t=0, so it borrows heavily
    from the delayed jobs early on and must give tokens back later.
    """
    duration = cfg.secs(120.0)
    params = [  # (burst MiB, gap s, continuous-start delay s)
        (48, 3.0, 20.0),
        (32, 4.0, 50.0),
        (24, 5.0, 80.0),  # job3: largest delay, smallest burst (per paper)
    ]
    jobs = []
    for idx, (mib, gap, delay) in enumerate(params, start=1):
        gap_s = cfg.secs(gap)
        count = max(2, int(duration / gap_s))
        burst_proc = ProcessSpec(
            BurstPattern(
                burst_bytes=cfg.bytes_(mib * MIB),
                interval_s=gap_s,
                count=count,
            ),
            window=cfg.window,
        )
        # The delayed stream runs to the end of the window from its start.
        stream_duration = max(duration - cfg.secs(delay), cfg.secs(10.0))
        continuous_proc = ProcessSpec(
            DelayedContinuousPattern(
                delay_s=cfg.secs(delay),
                total_bytes=cfg.continuous_bytes_per_proc(
                    stream_duration, procs=4, saturation=1.0
                ),
            ),
            window=cfg.window,
        )
        jobs.append(
            JobSpec(
                job_id=f"job{idx}",
                nodes=1,
                processes=(burst_proc, continuous_proc),
            )
        )

    hog_bytes = cfg.continuous_bytes_per_proc(
        duration, cfg.heavy_procs, saturation=1.0
    )
    hog = JobSpec(
        job_id="job4",
        nodes=1,
        processes=tuple(
            ProcessSpec(SequentialWritePattern(hog_bytes), window=cfg.window)
            for _ in range(cfg.heavy_procs)
        ),
    )
    jobs.append(hog)
    return Scenario(
        name="recompensation",
        jobs=jobs,
        duration_s=duration,
        description=(
            "4 equal-priority jobs; jobs 1-3 lend early (delayed continuous "
            "streams at 20/50/80s) while job 4 borrows from t=0"
        ),
    )


def scenario_burst_storm(
    cfg: ScenarioConfig = ScenarioConfig(),
    n_jobs: int = 6,
    seed: int = 0,
    duration_s: float = 40.0,
    with_hog: bool = True,
) -> Scenario:
    """Mixed-priority burst storm: many jobs, randomized shapes (seeded).

    ``n_jobs`` bursty jobs with node counts (priorities), burst volumes,
    cadences, process counts and phase offsets all drawn from a named
    :class:`~repro.sim.rng.RngStreams` substream — the adversarial
    many-tenant regime none of the
    paper's fixed four-job scripts could express.  An optional low-priority
    continuous hog keeps the OST saturated between bursts so redistribution
    stays observable.  The same seed always yields the identical job mix.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    rng = RngStreams(seed=seed).get_stdlib("scenario.burst-storm")
    duration = cfg.secs(duration_s)
    jobs: List[JobSpec] = []
    for idx in range(1, n_jobs + 1):
        nodes = rng.randint(1, 8)
        n_procs = rng.randint(1, 3)
        processes = []
        for _ in range(n_procs):
            gap_s = cfg.secs(rng.uniform(2.0, 6.0))
            delay_s = cfg.secs(rng.uniform(0.0, 4.0))
            count = max(2, int((duration - delay_s) / gap_s))
            processes.append(
                ProcessSpec(
                    BurstPattern(
                        burst_bytes=cfg.bytes_(rng.choice((16, 32, 64, 96, 128)) * MIB),
                        interval_s=gap_s,
                        count=count,
                        start_delay_s=delay_s,
                    ),
                    window=cfg.window,
                )
            )
        jobs.append(
            JobSpec(job_id=f"storm{idx}", nodes=nodes, processes=tuple(processes))
        )
    if with_hog:
        hog_bytes = cfg.continuous_bytes_per_proc(duration, 4, saturation=1.0)
        jobs.append(
            JobSpec(
                job_id="hog",
                nodes=1,
                processes=tuple(
                    ProcessSpec(SequentialWritePattern(hog_bytes), window=cfg.window)
                    for _ in range(4)
                ),
            )
        )
    return Scenario(
        name="burst-storm",
        jobs=jobs,
        duration_s=duration,
        description=(
            f"{n_jobs} mixed-priority bursty jobs with seeded-random shapes "
            f"(seed={seed})" + (" + continuous low-priority hog" if with_hog else "")
        ),
    )


def scenario_elastic_churn(
    cfg: ScenarioConfig = ScenarioConfig(),
    waves: int = 3,
    jobs_per_wave: int = 2,
    wave_gap_s: float = 8.0,
    file_mib: float = 192.0,
    seed: int = 0,
) -> Scenario:
    """Elastic job churn: whole jobs arrive in waves, finish, and leave.

    Wave ``w`` starts ``w * wave_gap_s`` into the run; each of its jobs
    writes a fixed volume and departs, so the active set repeatedly grows
    and shrinks — continuous arrival *and* departure churn, where the
    paper's scripts only ever shrink (§IV-D) or hold steady (§IV-E/F).
    Node counts are drawn per job from a named
    :class:`~repro.sim.rng.RngStreams` substream, so every wave mixes
    priorities.
    """
    if waves <= 0 or jobs_per_wave <= 0:
        raise ValueError("waves and jobs_per_wave must be positive")
    if wave_gap_s <= 0:
        raise ValueError("wave_gap_s must be positive")
    require_finite_positive("file_mib", file_mib)
    rng = RngStreams(seed=seed).get_stdlib("scenario.elastic-churn")
    jobs: List[JobSpec] = []
    for wave in range(waves):
        arrival_s = cfg.secs(wave * wave_gap_s)
        for j in range(jobs_per_wave):
            nodes = rng.choice((1, 2, 4))
            n_procs = rng.randint(2, 4)
            processes = tuple(
                ProcessSpec(
                    SequentialWritePattern(
                        cfg.bytes_(file_mib * MIB), start_delay_s=arrival_s
                    ),
                    window=cfg.window,
                )
                for _ in range(n_procs)
            )
            jobs.append(
                JobSpec(
                    job_id=f"wave{wave + 1}.job{j + 1}",
                    nodes=nodes,
                    processes=processes,
                )
            )
    return Scenario(
        name="elastic-churn",
        jobs=jobs,
        duration_s=None,
        description=(
            f"{waves} waves x {jobs_per_wave} jobs arriving every "
            f"{wave_gap_s:g}s (scaled), each departing when its files are "
            f"written (seed={seed})"
        ),
    )
