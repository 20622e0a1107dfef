"""Controller history retention, the kept-round contract and the no-demand
(rule teardown) path."""

import pickle
from collections import deque

import pytest

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.core.records import JobRecords
from repro.scenarios import REGISTRY
from repro.scenarios.spec import PolicySpec, ScenarioSpec
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MIB = 1 << 20


def spec_with(keep_history, volume_mib=256, interval_s=0.1) -> ScenarioSpec:
    return ScenarioSpec(
        name="hist",
        jobs=(
            JobSpec(
                job_id="j0",
                nodes=1,
                processes=(ProcessSpec(SequentialWritePattern(volume_mib * MIB)),),
            ),
            JobSpec(
                job_id="j1",
                nodes=3,
                processes=(ProcessSpec(SequentialWritePattern(volume_mib * MIB)),),
            ),
        ),
        policy=PolicySpec(keep_history=keep_history, interval_s=interval_s),
    )


def recompensation_spec():
    """Fig. 7's scenario at 1/100 scale: the ledger moves every round."""
    return REGISTRY.build("recompensation", data_scale=0.01, time_scale=0.01)


def spy_on_allocate(cluster, monkeypatch):
    """Record every ``AllocationResult`` the controller's algorithm returns."""
    algorithm = cluster.handles[0].algorithm
    allocate = algorithm.allocate
    returned = []

    def spy(inputs):
        result = allocate(inputs)
        returned.append(result)
        return result

    monkeypatch.setattr(algorithm, "allocate", spy)
    return returned


class TestHistoryRetention:
    def test_default_keeps_every_round(self):
        cluster = build(spec_with(True))
        cluster.env.run(until=cluster.all_clients_done())
        ctrl = cluster.handles[0].controller
        assert isinstance(ctrl.history, list)
        assert len(ctrl.history) > 3

    def test_int_caps_with_deque(self):
        cluster = build(spec_with(3))
        cluster.env.run(until=cluster.all_clients_done())
        ctrl = cluster.handles[0].controller
        assert isinstance(ctrl.history, deque)
        assert ctrl.history.maxlen == 3
        assert len(ctrl.history) == 3
        # The retained rounds are the most recent ones.
        times = [round_.time for round_ in ctrl.history]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(cluster.env.now, abs=0.2)

    def test_false_disables_recording_but_not_callbacks(self, monkeypatch):
        cluster = build(spec_with(False))
        returned = spy_on_allocate(cluster, monkeypatch)
        seen = []
        cluster.handles[0].controller.on_round(seen.append)
        cluster.env.run(until=cluster.all_clients_done())
        assert cluster.handles[0].controller.history == []
        # on_round still fires every round, with that round's grants.
        assert len(seen) == len(returned) > 3
        assert [round_.result.allocations for round_ in seen] == [
            result.allocations for result in returned
        ]

    def test_false_without_callback_builds_no_round(self, monkeypatch):
        calls = []
        snapshot = JobRecords.snapshot

        def counted(records):
            calls.append(records)
            return snapshot(records)

        monkeypatch.setattr(JobRecords, "snapshot", counted)
        cluster = build(spec_with(False))
        cluster.env.run(until=cluster.all_clients_done())
        assert cluster.handles[0].algorithm.rounds_run > 3
        assert calls == []

    def test_nonpositive_cap_rejected(self):
        from repro.core.controller import SystemStatsController

        cluster = build(spec_with(True))
        ctrl = cluster.handles[0].controller
        with pytest.raises(ValueError, match="keep_history"):
            SystemStatsController(
                cluster.env,
                jobstats=ctrl.jobstats,
                algorithm=ctrl.algorithm,
                daemon=ctrl.daemon,
                nodes=ctrl.nodes,
                max_token_rate=ctrl.max_token_rate,
                keep_history=-2,
            )


    @pytest.mark.parametrize("interval_s", [0.0, float("inf"), float("nan")])
    def test_non_finite_interval_rejected(self, interval_s):
        from repro.core.controller import SystemStatsController

        cluster = build(spec_with(True))
        ctrl = cluster.handles[0].controller
        with pytest.raises(ValueError, match="finite positive"):
            SystemStatsController(
                cluster.env,
                jobstats=ctrl.jobstats,
                algorithm=ctrl.algorithm,
                daemon=ctrl.daemon,
                nodes=ctrl.nodes,
                max_token_rate=ctrl.max_token_rate,
                interval_s=interval_s,
            )


class TestKeptRounds:
    """A kept round holds the grants and a ledger snapshot shared with the
    previous round while the ledger is unchanged."""

    @staticmethod
    def run_kept(spec):
        """Run ``spec``; check every kept round's ledger against the live
        one and that snapshots are shared exactly while it is unchanged.
        Returns the rounds and how many round-to-round steps changed it."""
        cluster = build(spec)
        records = cluster.handles[0].algorithm.records
        live = []
        cluster.handles[0].controller.on_round(
            lambda round_: live.append(records.snapshot())
        )
        cluster.env.run(until=cluster.all_clients_done())
        rounds = cluster.handles[0].history
        assert len(rounds) > 3
        assert [round_.records for round_ in rounds] == live
        changes = 0
        for before, after in zip(rounds, rounds[1:]):
            changed = after.records != before.records
            assert (after.records is before.records) is not changed
            changes += changed
        return rounds, changes

    def test_unchanged_ledger_shares_one_snapshot(self):
        # At 50 Hz both jobs want more than their share nearly every round,
        # so few rounds move a record.
        rounds, changes = self.run_kept(spec_with(True, interval_s=0.02))
        assert changes < len(rounds) // 2

    def test_moving_ledger_gets_a_new_snapshot_on_each_change(self):
        rounds, changes = self.run_kept(recompensation_spec())
        assert any(round_.result.reclaimed_pool for round_ in rounds)
        assert changes > len(rounds) // 2

    @pytest.mark.parametrize(
        "spec",
        [spec_with(True), recompensation_spec()],
        ids=["two-jobs", "recompensation"],
    )
    def test_grants_equal_what_allocate_returned(self, spec, monkeypatch):
        cluster = build(spec)
        returned = spy_on_allocate(cluster, monkeypatch)
        cluster.env.run(until=cluster.all_clients_done())
        rounds = cluster.handles[0].history
        assert len(rounds) == len(returned) > 3
        for round_, result in zip(rounds, returned):
            grants = round_.result
            assert grants.allocations == result.allocations
            assert grants.total_tokens == result.total_tokens
            assert grants.surplus_pool == result.surplus_pool
            assert grants.reclaimed_pool == result.reclaimed_pool

    def test_kept_round_holds_no_per_job_trace(self):
        cluster = build(spec_with(True, volume_mib=64))
        cluster.env.run(until=cluster.all_clients_done())
        grants = cluster.handles[0].history[-1].result
        with pytest.raises(AttributeError):
            grants.per_job
        with pytest.raises(AttributeError):
            grants.rate_for

    @pytest.mark.parametrize(
        "spec",
        [spec_with(True, interval_s=0.02), recompensation_spec()],
        ids=["shared-ledger", "recompensation"],
    )
    def test_kept_experiment_result_pickles(self, spec):
        result = execute(build(spec))
        copy = pickle.loads(pickle.dumps(result))
        assert len(copy.history) == len(result.history) > 3
        for mine, theirs in zip(result.history, copy.history):
            assert (theirs.time, theirs.demands, theirs.records) == (
                mine.time,
                mine.demands,
                mine.records,
            )
            assert theirs.result == mine.result
        # Pickling keeps shared snapshots shared.
        assert [
            after.records is before.records
            for before, after in zip(copy.history, copy.history[1:])
        ] == [
            after.records is before.records
            for before, after in zip(result.history, result.history[1:])
        ]


class TestNoDemandPath:
    """When every job goes idle the controller stops all managed rules so
    queued leftovers drain unthrottled (the paper's no-starvation path)."""

    def test_rules_stopped_after_jobs_finish(self):
        cluster = build(spec_with(True, volume_mib=64))
        env = cluster.env
        daemon = cluster.handles[0].daemon
        env.run(until=cluster.all_clients_done())
        # While jobs ran, managed rules existed.
        assert daemon.rules_created > 0
        # Let a few more observation periods elapse with zero demand.
        env.run(until=env.now + 1.0)
        prefix = daemon.rule_prefix
        managed = [
            name for name in daemon.policy.rule_names() if name.startswith(prefix)
        ]
        assert managed == []
        assert daemon.rules_stopped > 0

    def test_no_demand_rounds_not_recorded(self):
        cluster = build(spec_with(True, volume_mib=64))
        env = cluster.env
        env.run(until=cluster.all_clients_done())
        # One more period may record the final RPCs served mid-window;
        # after that the demand signal is flat zero.
        env.run(until=env.now + 0.3)
        rounds_after_flush = len(cluster.handles[0].history)
        env.run(until=env.now + 1.0)
        # Idle periods produce no allocation rounds (result is None).
        assert len(cluster.handles[0].history) == rounds_after_flush

    def test_idle_controller_with_no_rules_stays_quiet(self):
        """_stop_all_rules must not fire when nothing is managed."""
        cluster = build(spec_with(True, volume_mib=64))
        env = cluster.env
        daemon = cluster.handles[0].daemon
        env.run(until=cluster.all_clients_done())
        env.run(until=env.now + 1.0)
        stopped_once = daemon.rules_stopped
        env.run(until=env.now + 1.0)
        assert daemon.rules_stopped == stopped_once
