"""Crash/resume semantics of the durable campaign executor.

The acceptance bar: a campaign interrupted at an *arbitrary* point —
``max_cells`` stops, a cell raising mid-drain, SIGKILL of a pool worker,
SIGKILL of the whole coordinating process — and finished with resume must
yield ``rows.json``/``rows.csv`` byte-identical to an uninterrupted
``--jobs 1`` run, on both store backends and for serial and parallel
resumes.  Plus: lease-expiry reclamation, spec-hash-mismatch rejection,
and the resumed-run ``cells_per_s``/``skipped`` accounting.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.campaigns.queue as queue_mod
from repro.campaigns import (
    CampaignExecutionError,
    JsonlStore,
    ParameterAxis,
    SpecHashMismatchError,
    SqliteStore,
    StoreNotEmptyError,
    WorkQueue,
    queue_status,
    run_campaign,
    write_artifacts,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The deterministic artifacts resume must reproduce byte-for-byte.
DETERMINISTIC = ("rows.json", "rows.csv")

#: The resume tests run the conftest ``tiny_campaign`` fixture at four
#: capacities under their own name, so store spec-hashes never collide
#: with the executor module's two-cell runs.
RESUME_SHAPE = dict(
    name="resume-tiny",
    axes=(
        ParameterAxis("capacity_mib_s", (256.0, 512.0, 768.0, 1024.0)),
    ),
)


def make_store(tmp_path: Path, kind: str):
    if kind == "jsonl":
        return JsonlStore(tmp_path / "store")
    return SqliteStore(tmp_path / "store.db")


@pytest.fixture(scope="module")
def baseline(tiny_campaign, tmp_path_factory):
    """Uninterrupted jobs=1 artifacts of the shared tiny campaign."""
    out = tmp_path_factory.mktemp("baseline")
    result = run_campaign(tiny_campaign(**RESUME_SHAPE), jobs=1)
    return write_artifacts(result, out)


def assert_matches_baseline(result, out_dir: Path, baseline) -> None:
    written = write_artifacts(result, out_dir)
    for name in DETERMINISTIC:
        key = "rows" if name == "rows.json" else "csv"
        assert written[key].read_bytes() == baseline[key].read_bytes(), name


class TestResumeByteIdentity:
    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("stop_after", [1, 3])
    def test_interrupted_then_resumed_rows_are_byte_identical(
        self, tiny_campaign, tmp_path, baseline, kind, jobs, stop_after
    ):
        campaign = tiny_campaign(**RESUME_SHAPE)
        with make_store(tmp_path, kind) as store:
            partial = run_campaign(
                campaign, jobs=1, store=store, max_cells=stop_after
            )
            assert not partial.complete
            assert partial.executed == stop_after
        with make_store(tmp_path, kind) as store:
            resumed = run_campaign(
                campaign, jobs=jobs, store=store, resume=True
            )
        assert resumed.complete
        assert resumed.skipped == stop_after
        assert resumed.executed == campaign.n_cells - stop_after
        assert_matches_baseline(resumed, tmp_path / "out", baseline)

    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    def test_resume_of_complete_campaign_executes_nothing(
        self, tiny_campaign, tmp_path, baseline, kind
    ):
        campaign = tiny_campaign(**RESUME_SHAPE)
        with make_store(tmp_path, kind) as store:
            run_campaign(campaign, jobs=1, store=store)
        with make_store(tmp_path, kind) as store:
            resumed = run_campaign(
                campaign, jobs=1, store=store, resume=True
            )
        assert resumed.complete
        assert resumed.executed == 0
        assert resumed.skipped == campaign.n_cells
        assert resumed.cells_per_s == 0.0
        assert_matches_baseline(resumed, tmp_path / "out", baseline)


class TestGuards:
    def test_fresh_run_on_nonempty_store_is_loud(self, tiny_campaign, tmp_path):
        campaign = tiny_campaign(**RESUME_SHAPE)
        with make_store(tmp_path, "jsonl") as store:
            run_campaign(campaign, jobs=1, store=store, max_cells=1)
        with make_store(tmp_path, "jsonl") as store:
            with pytest.raises(StoreNotEmptyError, match="resume"):
                run_campaign(campaign, jobs=1, store=store)

    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    def test_spec_hash_mismatch_is_rejected(self, tiny_campaign, tmp_path, kind):
        with make_store(tmp_path, kind) as store:
            run_campaign(tiny_campaign(**RESUME_SHAPE), jobs=1, store=store, max_cells=1)
        other = tiny_campaign(
            **{
                **RESUME_SHAPE,
                "axes": (ParameterAxis("capacity_mib_s", (128.0,)),),
            }
        )
        with make_store(tmp_path, kind) as store:
            with pytest.raises(SpecHashMismatchError, match="spec hash"):
                run_campaign(other, jobs=1, store=store, resume=True)

    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    def test_resume_of_unresolvable_store_exits_untouched(
        self, tiny_campaign, tmp_path, kind
    ):
        # A store from when campaigns could sweep the engine's `backend`:
        # its cells name a parameter the quickstart scenario never took.
        from repro.experiments.__main__ import main

        legacy = tiny_campaign(
            name="legacy-backend",
            axes=(ParameterAxis("backend", ("heap", "array")),),
        )
        with make_store(tmp_path / "donor", "jsonl") as donor:
            run_campaign(
                tiny_campaign(**RESUME_SHAPE), jobs=1, store=donor, max_cells=1
            )
            record = donor.load()[0]
        with make_store(tmp_path, kind) as store:
            store.begin(legacy.spec_hash(), legacy.to_json_dict())
            store.commit(record)
            # A dead worker's lease on the pending cell.
            assert store.acquire(1, "dead-host:123", time.time() - 100.0, ttl=1.0)
            state = (store.load(), store.leases())
        root = tmp_path / ("store" if kind == "jsonl" else "store.db")

        def files():
            paths = root.iterdir() if root.is_dir() else [root]
            return {path.name: path.read_bytes() for path in paths}

        before = files()
        with pytest.raises(SystemExit, match="'backend'") as exc:
            main(["campaign", "resume", str(root)])
        assert "\n" not in str(exc.value.code)
        assert files() == before
        with make_store(tmp_path, kind) as store:
            assert (store.load(), store.leases()) == state

class TestCellFailure:
    def test_raise_inside_cell_commits_the_rest_then_resume_heals(
        self, tiny_campaign, tmp_path, baseline, monkeypatch
    ):
        campaign = tiny_campaign(**RESUME_SHAPE)
        real = queue_mod._execute_cell

        def flaky(spec, cell):
            if cell.index == 1:
                raise RuntimeError("injected mid-campaign failure")
            return real(spec, cell)

        monkeypatch.setattr(queue_mod, "_execute_cell", flaky)
        store = make_store(tmp_path, "jsonl")
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_campaign(campaign, jobs=1, store=store)
        error = excinfo.value
        assert [f.index for f in error.failures] == [1]
        assert "injected" in error.failures[0].error
        # Every other cell committed durably before the error surfaced.
        assert sorted(store.load()) == [0, 2, 3]
        # The failed cell's lease was released: resume retries immediately.
        assert store.leases() == {}
        store.close()

        monkeypatch.setattr(queue_mod, "_execute_cell", real)
        with make_store(tmp_path, "jsonl") as fresh:
            resumed = run_campaign(
                campaign, jobs=1, store=fresh, resume=True
            )
        assert resumed.complete
        assert resumed.skipped == 3
        assert_matches_baseline(resumed, tmp_path / "out", baseline)

    def test_partial_result_rides_on_the_error(self, tiny_campaign, tmp_path, monkeypatch):
        campaign = tiny_campaign(**RESUME_SHAPE)
        real = queue_mod._execute_cell
        monkeypatch.setattr(
            queue_mod,
            "_execute_cell",
            lambda spec, cell: (_ for _ in ()).throw(ValueError("boom"))
            if cell.index >= 2
            else real(spec, cell),
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_campaign(campaign, jobs=1)
        partial = excinfo.value.result
        assert [o.index for o in partial.outcomes] == [0, 1]
        assert len(excinfo.value.failures) == 2


class TestLeaseReclamation:
    def test_live_lease_is_respected(self, tiny_campaign, tmp_path):
        campaign = tiny_campaign(**RESUME_SHAPE)
        store = make_store(tmp_path, "jsonl")
        store.begin(campaign.spec_hash(), campaign.to_json_dict())
        # Another (live) run holds cell 2.
        assert store.acquire(2, "other-host:999", time.time(), ttl=3600.0)
        result = run_campaign(campaign, jobs=1, store=store, resume=True)
        assert not result.complete
        assert [o.index for o in result.outcomes] == [0, 1, 3]
        store.close()

    def test_dead_local_coordinator_lease_is_reclaimed(self, tiny_campaign, tmp_path):
        import socket

        campaign = tiny_campaign(**RESUME_SHAPE)
        store = make_store(tmp_path, "jsonl")
        store.begin(campaign.spec_hash(), campaign.to_json_dict())
        # A coordinator on THIS host that is provably dead: its lease has
        # hours of TTL left, but resume must not wait it out.
        ghost = subprocess.Popen([sys.executable, "-c", "pass"])
        ghost.wait()
        worker = f"{socket.gethostname()}:{ghost.pid}"
        assert store.acquire(2, worker, time.time(), ttl=3600.0)
        result = run_campaign(campaign, jobs=1, store=store, resume=True)
        assert result.complete
        assert [o.index for o in result.outcomes] == [0, 1, 2, 3]
        store.close()

    def test_expired_lease_is_reclaimed_and_executed(self, tiny_campaign, tmp_path):
        campaign = tiny_campaign(**RESUME_SHAPE)
        store = make_store(tmp_path, "sqlite")
        store.begin(campaign.spec_hash(), campaign.to_json_dict())
        # A worker died holding cell 2: its lease is long expired.
        assert store.acquire(
            2, "dead-host:123", time.time() - 100.0, ttl=1.0
        )
        queue = WorkQueue(campaign, store)
        drained = queue.drain(jobs=1)
        assert drained.reclaimed == 1
        assert sorted(o.index for o in drained.outcomes) == [0, 1, 2, 3]
        assert store.leases() == {}
        store.close()


class TestStatusAndAccounting:
    def test_status_counts_committed_leased_pending(self, tiny_campaign, tmp_path):
        campaign = tiny_campaign(**RESUME_SHAPE)
        with make_store(tmp_path, "jsonl") as store:
            run_campaign(campaign, jobs=1, store=store, max_cells=2)
        store = make_store(tmp_path, "jsonl")
        store.acquire(2, "w1", time.time(), ttl=3600.0)  # live
        store.acquire(3, "w2", time.time() - 100.0, ttl=1.0)  # expired
        status = queue_status(store)
        assert status.total == 4
        assert status.committed == 2
        assert status.leased == 1
        assert status.reclaimable == 1
        assert status.pending == 1
        assert status.spec_hash == campaign.spec_hash()
        text = status.describe()
        assert "skipped on resume: 2" in text
        assert "1 expired" in text
        store.close()

    def test_resumed_cells_per_s_counts_only_executed(self, tiny_campaign, tmp_path):
        campaign = tiny_campaign(**RESUME_SHAPE)
        with make_store(tmp_path, "jsonl") as store:
            run_campaign(campaign, jobs=1, store=store, max_cells=3)
        with make_store(tmp_path, "jsonl") as store:
            resumed = run_campaign(
                campaign, jobs=1, store=store, resume=True
            )
        assert resumed.skipped == 3
        assert resumed.executed == 1
        # Only this invocation's work counts: 1 cell over its wall time,
        # never 4 / wall_s (which would claim impossible speed).
        assert resumed.cells_per_s == pytest.approx(
            1 / resumed.wall_s
        )

    def test_skipped_surfaces_in_report_and_timing(self, tiny_campaign, tmp_path):
        import json

        from repro.metrics.report import format_campaign_report

        campaign = tiny_campaign(**RESUME_SHAPE)
        with make_store(tmp_path, "jsonl") as store:
            run_campaign(campaign, jobs=1, store=store, max_cells=1)
        with make_store(tmp_path, "jsonl") as store:
            resumed = run_campaign(
                campaign, jobs=1, store=store, resume=True
            )
        report = format_campaign_report(resumed)
        assert "skipped 1 already-committed" in report
        written = write_artifacts(resumed, tmp_path / "out")
        timing = json.loads(written["timing"].read_text())
        assert timing["skipped"] == 1
        assert timing["executed"] == 3


# -- killing real processes ------------------------------------------------

#: Slow-enough cells that a poll-then-kill reliably lands mid-campaign:
#: ~0.5-1 s of wall per cell, 4 cells.
KILL_CAMPAIGN_PARAMS = [
    "--param", "osts=1,2",
    "--param", "capacities=192,256",
    "--param", "file_mib=384",
    "--param", "procs=4",
]


def _cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        **kwargs,
    )


def _wait_for_commits(store_dir: Path, minimum: int, timeout: float = 60.0):
    """Poll the JSONL store until ``minimum`` cells have committed."""
    rows = store_dir / "rows.jsonl"
    deadline = time.time() + timeout
    while time.time() < deadline:
        if rows.exists():
            committed = len(rows.read_text().splitlines())
            if committed >= minimum:
                return committed
        time.sleep(0.02)
    raise AssertionError(
        f"store at {store_dir} never reached {minimum} committed cells"
    )


def _children_of(pid: int):
    """Direct child PIDs via /proc (Linux)."""
    kids = []
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        children = task / "children"
        if children.exists():
            kids.extend(
                int(c) for c in children.read_text().split() if c.strip()
            )
    return kids


@pytest.fixture(scope="module")
def kill_baseline(tmp_path_factory):
    """Uninterrupted jobs=1 artifacts of the kill-test campaign."""
    from repro.campaigns import CAMPAIGNS

    # Exactly the CLI build path (string params coerced against the
    # factory signature), so spec hashes agree with the subprocess runs.
    raw = {
        "osts": "1,2",
        "capacities": "192,256",
        "file_mib": "384",
        "procs": "4",
    }
    campaign = CAMPAIGNS.build(
        "scale-osts", **CAMPAIGNS.coerce("scale-osts", raw)
    )
    out = tmp_path_factory.mktemp("kill-baseline")
    return write_artifacts(run_campaign(campaign, jobs=1), out)


@pytest.mark.skipif(sys.platform != "linux", reason="needs /proc + SIGKILL")
class TestKillAndResume:
    def test_sigkill_whole_run_then_resume(self, tmp_path, kill_baseline):
        store_dir = tmp_path / "store"
        proc = _cli(
            "campaign", "run", "scale-osts", *KILL_CAMPAIGN_PARAMS,
            "--jobs", "1", "--store", str(store_dir),
        )
        try:
            _wait_for_commits(store_dir, 1)
            proc.kill()  # SIGKILL: no cleanup, leases stay behind
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        committed = len(
            (store_dir / "rows.jsonl").read_text().splitlines()
        )
        assert committed < 4, "campaign finished before the kill landed"

        resume = _cli(
            "campaign", "resume", str(store_dir),
            "--out", str(tmp_path / "out"),
        )
        out, _ = resume.communicate(timeout=180)
        assert resume.returncode == 0, out.decode()
        for name in DETERMINISTIC:
            key = "rows" if name == "rows.json" else "csv"
            assert (tmp_path / "out" / name).read_bytes() == kill_baseline[
                key
            ].read_bytes(), name

    def test_sigkill_pool_worker_then_resume(self, tmp_path, kill_baseline):
        store_dir = tmp_path / "store"
        proc = _cli(
            "campaign", "run", "scale-osts", *KILL_CAMPAIGN_PARAMS,
            "--jobs", "2", "--store", str(store_dir),
        )
        try:
            _wait_for_commits(store_dir, 1)
            workers = _children_of(proc.pid)
            assert workers, "no pool worker processes found"
            os.kill(workers[0], signal.SIGKILL)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        # The coordinator survives the dead worker, reports the loss, and
        # exits non-zero with every finished cell already committed.
        assert proc.returncode == 1, out.decode()
        assert b"worker process died" in out or b"failed" in out
        committed = len(
            (store_dir / "rows.jsonl").read_text().splitlines()
        )
        assert 1 <= committed < 4

        resume = _cli(
            "campaign", "resume", str(store_dir), "--jobs", "2",
            "--out", str(tmp_path / "out"),
        )
        out, _ = resume.communicate(timeout=180)
        assert resume.returncode == 0, out.decode()
        for name in DETERMINISTIC:
            key = "rows" if name == "rows.json" else "csv"
            assert (tmp_path / "out" / name).read_bytes() == kill_baseline[
                key
            ].read_bytes(), name
