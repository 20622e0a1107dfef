"""Integration tests: AdapTBF control loop over the simulated Lustre stack."""

import pytest
from simstack import attach_controller

from repro.cluster import build, execute
from repro.core import MECHANISMS, install_static_rules
from repro.core.ablation import priority_only
from repro.lustre import ClientProcess, Oss, Ost
from repro.scenarios import PolicySpec, ScenarioSpec, TopologySpec
from repro.sim import Environment
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import JobSpec, ProcessSpec

MB = 1 << 20


class TestAdapTbfLoop:
    def test_rules_created_for_active_jobs(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        frame = attach_controller(
            env, oss, nodes={"j1": 1, "j2": 3}, max_token_rate=100, interval_s=0.1
        )
        ClientProcess(env, net, oss, "j1", "c0", seq(50 * MB))
        ClientProcess(env, net, oss, "j2", "c1", seq(50 * MB))
        env.run(until=0.35)
        assert policy.has_rule_for_job("j1")
        assert policy.has_rule_for_job("j2")
        assert frame.daemon.rules_created == 2

    def test_priority_proportional_rates(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env, capacity_mbps=1000)
        attach_controller(
            env, oss, nodes={"j1": 1, "j2": 3}, max_token_rate=1000, interval_s=0.1
        )
        ClientProcess(env, net, oss, "j1", "c0", seq(2000 * MB), window=32)
        ClientProcess(env, net, oss, "j2", "c1", seq(2000 * MB), window=32)
        env.run(until=1.0)
        r1 = policy.get_rule("adaptbf_j1")
        r2 = policy.get_rule("adaptbf_j2")
        # Both jobs saturate their shares => allocations track priority 1:3.
        assert r2.rate / r1.rate == pytest.approx(3.0, rel=0.25)
        # Hierarchy: the higher-priority job ranks first.
        assert r2.rank < r1.rank

    def test_rules_stopped_when_job_finishes(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        frame = attach_controller(
            env, oss, nodes={"j1": 1, "j2": 1}, max_token_rate=100, interval_s=0.1
        )
        ClientProcess(env, net, oss, "j1", "c0", seq(5 * MB))
        ClientProcess(env, net, oss, "j2", "c1", seq(200 * MB))
        env.run(until=3.0)
        assert not policy.has_rule_for_job("j1")  # finished long ago
        assert frame.daemon.rules_stopped >= 1

    def test_surviving_job_absorbs_freed_bandwidth(self, make_stack):
        """Work conservation across job departures (§IV-D's point)."""
        env = Environment()
        ost, policy, oss, net = make_stack(env, capacity_mbps=100)
        attach_controller(
            env, oss, nodes={"j1": 1, "j2": 1}, max_token_rate=100, interval_s=0.1
        )
        done = {}

        def tracked(total, tag):
            def program(io):
                yield from io.write(total)
                done[tag] = io.now

            return program

        ClientProcess(env, net, oss, "j1", "c0", tracked(20 * MB, "j1"))
        ClientProcess(env, net, oss, "j2", "c1", tracked(150 * MB, "j2"))
        # The controller loop runs forever; bound the run explicitly.
        env.run(until=5.0)
        # j2 should finish well before the 3 s a frozen 50-token rule implies,
        # because after j1 leaves it receives (almost) the whole OST.
        assert done["j2"] < 2.2

    def test_history_records_rounds(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        frame = attach_controller(
            env, oss, nodes={"j1": 1}, max_token_rate=100, interval_s=0.1
        )
        ClientProcess(env, net, oss, "j1", "c0", seq(100 * MB))
        env.run(until=0.55)
        assert len(frame.history) >= 4
        assert frame.history[0].time == pytest.approx(0.1)
        assert frame.history[0].demands["j1"] > 0

    def test_unknown_job_left_on_fallback(self, make_stack, seq):
        """Jobs the scheduler doesn't know get no rule but still progress."""
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        attach_controller(env, oss, nodes={"known": 1}, max_token_rate=100, interval_s=0.1)
        client = ClientProcess(env, net, oss, "mystery", "c0", seq(30 * MB))
        env.run(until=2.0)
        assert client.finished
        assert not policy.has_rule_for_job("mystery")

    def test_rule_stopped_while_only_unknown_jobs_are_active(self, make_stack, seq):
        """A round whose active jobs are all unknown stops every managed
        rule, like a round with no active job: the known job's next burst
        meets the fallback queue, not a stale rate."""
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        frame = attach_controller(
            env, oss, nodes={"known": 1}, max_token_rate=100, interval_s=0.1
        )
        known = ClientProcess(env, net, oss, "known", "c0", seq(5 * MB))
        ClientProcess(env, net, oss, "mystery", "c1", seq(200 * MB))
        env.run(until=2.0)
        assert known.finished
        assert frame.daemon.rules_created == 1
        assert frame.daemon.rules_stopped == 1
        assert not policy.has_rule_for_job("known")

    def test_register_job_mid_run(self, make_stack, seq):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        frame = attach_controller(env, oss, nodes={"j1": 1}, max_token_rate=100)

        def late_arrival(env):
            yield env.timeout(0.5)
            frame.register_job("late", nodes=7)
            ClientProcess(env, net, oss, "late", "c9", seq(30 * MB))

        ClientProcess(env, net, oss, "j1", "c0", seq(100 * MB))
        env.process(late_arrival(env))
        # Stop while `late` is still writing: its rule must exist right now.
        env.run(until=0.85)
        assert policy.has_rule_for_job("late")
        # And the late job's 7-node priority dominates the allocation.
        last = frame.history[-1].result.allocations
        assert last["late"] > last["j1"]

    def test_requires_tbf_policy(self):
        from repro.lustre import FifoPolicy

        env = Environment()
        ost = Ost(env, "ost0", capacity_bps=MB)
        oss = Oss(env, ost, FifoPolicy(env))
        spec = ScenarioSpec(
            name="t",
            jobs=(
                JobSpec(
                    job_id="j1",
                    nodes=1,
                    processes=(ProcessSpec(SequentialWritePattern(MB)),),
                ),
            ),
        )
        with pytest.raises(TypeError, match="TbfPolicy"):
            MECHANISMS.build("adaptbf").install(env, oss, spec)

    def test_overhead_validation(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        with pytest.raises(ValueError):
            attach_controller(
                env,
                oss,
                nodes={"j1": 1},
                max_token_rate=100,
                interval_s=0.1,
                overhead_s=0.2,
            )

    @pytest.mark.parametrize("nodes", [2.5, True, float("nan"), 0])
    def test_node_counts_must_be_int_counts(self, make_stack, nodes):
        """Both ways in take only an int >= 1: the allocator sums node
        counts as integers."""
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        line = f"^job 'bad': nodes must be an int >= 1, got {nodes!r}$"
        with pytest.raises(ValueError, match=line):
            attach_controller(env, oss, nodes={"bad": nodes}, max_token_rate=100)
        frame = attach_controller(env, oss, nodes={"j1": 1}, max_token_rate=100)
        with pytest.raises(ValueError, match=line):
            frame.register_job("bad", nodes=nodes)
        assert frame.nodes == {"j1": 1}

    def test_injected_ablation_algorithm(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        frame = attach_controller(
            env,
            oss,
            nodes={"j1": 1},
            max_token_rate=100,
            algorithm=priority_only(),
        )
        assert not frame.algorithm.enable_redistribution

    def test_record_and_demand_series(self):
        jobs = tuple(
            JobSpec(
                job_id=job,
                nodes=1,
                processes=(ProcessSpec(SequentialWritePattern(volume * MB)),),
            )
            for job, volume in (("j1", 10), ("j2", 100))
        )
        spec = ScenarioSpec(
            name="t",
            jobs=jobs,
            topology=TopologySpec(capacity_mib_s=100),
            policy=PolicySpec(interval_s=0.1),
        )
        result = execute(build(spec))
        records = result.record_series("j1")
        demands = result.demand_series("j1")
        assert len(records) == len(demands) == len(result.history) > 0
        assert all(isinstance(t, float) for t, _ in records)
        assert [t for t, _ in records] == [r.time for r in result.history]


class TestStaticBaseline:
    def test_static_rules_installed_proportionally(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env)
        rates = install_static_rules(
            policy, nodes={"j1": 1, "j2": 3}, max_token_rate=100
        )
        assert rates["j1"] == pytest.approx(25.0)
        assert rates["j2"] == pytest.approx(75.0)
        assert policy.has_rule_for_job("j1")

    def test_static_rules_never_adapt(self, make_stack):
        env = Environment()
        ost, policy, oss, net = make_stack(env, capacity_mbps=100)
        install_static_rules(policy, nodes={"j1": 1, "j2": 1}, max_token_rate=100)
        done = {}

        def tracked(total, tag):
            def program(io):
                yield from io.write(total)
                done[tag] = io.now

            return program

        ClientProcess(env, net, oss, "j1", "c0", tracked(10 * MB, "j1"))
        ClientProcess(env, net, oss, "j2", "c1", tracked(150 * MB, "j2"))
        env.run()
        # j2 is stuck at 50 tokens/s even after j1 finished: ~3 s not ~1.6 s.
        assert done["j2"] > 2.6

    def test_static_validation(self, make_stack):
        env = Environment()
        _, policy, _, _ = make_stack(env)
        with pytest.raises(ValueError):
            install_static_rules(policy, nodes={}, max_token_rate=100)
        with pytest.raises(ValueError):
            install_static_rules(policy, nodes={"j": 1}, max_token_rate=0)
