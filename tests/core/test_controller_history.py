"""Controller history retention and the no-demand (rule teardown) path."""

from collections import deque

import pytest

from repro.cluster.builder import build
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


class TestHistoryRetention:
    def test_default_keeps_every_round(self):
        cluster = build(spec_with(True))
        cluster.env.run(until=cluster.all_clients_done())
        ctrl = cluster.adaptbf.controller
        assert isinstance(ctrl.history, list)
        assert len(ctrl.history) > 3

    def test_int_caps_with_deque(self):
        cluster = build(spec_with(3))
        cluster.env.run(until=cluster.all_clients_done())
        ctrl = cluster.adaptbf.controller
        assert isinstance(ctrl.history, deque)
        assert ctrl.history.maxlen == 3
        assert len(ctrl.history) == 3
        # The retained rounds are the most recent ones.
        times = [round_.time for round_ in ctrl.history]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(cluster.env.now, abs=0.2)

    def test_false_disables_recording_but_not_callbacks(self):
        cluster = build(spec_with(False))
        seen = []
        cluster.adaptbf.controller.on_round(seen.append)
        cluster.env.run(until=cluster.all_clients_done())
        assert cluster.adaptbf.controller.history == []
        assert seen  # on_round still fires every round

    def test_nonpositive_cap_rejected(self):
        from repro.core.controller import SystemStatsController

        cluster = build(spec_with(True))
        ctrl = cluster.adaptbf.controller
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
        ctrl = cluster.adaptbf.controller
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


class TestNoDemandPath:
    """When every job goes idle the controller stops all managed rules so
    queued leftovers drain unthrottled (the paper's no-starvation path)."""

    def test_rules_stopped_after_jobs_finish(self):
        cluster = build(spec_with(True, volume_mib=64))
        env = cluster.env
        daemon = cluster.adaptbf.daemon
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
        rounds_after_flush = len(cluster.adaptbf.history)
        env.run(until=env.now + 1.0)
        # Idle periods produce no allocation rounds (result is None).
        assert len(cluster.adaptbf.history) == rounds_after_flush

    def test_idle_controller_with_no_rules_stays_quiet(self):
        """_stop_all_rules must not fire when nothing is managed."""
        cluster = build(spec_with(True, volume_mib=64))
        env = cluster.env
        daemon = cluster.adaptbf.daemon
        env.run(until=cluster.all_clients_done())
        env.run(until=env.now + 1.0)
        stopped_once = daemon.rules_stopped
        env.run(until=env.now + 1.0)
        assert daemon.rules_stopped == stopped_once
