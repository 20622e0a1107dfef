"""Behavioural tests for the built-in injectors on real built clusters.

Each test builds a small quickstart-derived cluster, attaches one fault
through the spec axis (exactly the path ``run --fault`` and campaign cells
take) and asserts the disturbance both *happened* and *healed*: service
resumes, ledgers balance, nothing leaks.
"""

import pytest

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.scenarios import REGISTRY


def small_spec(**overrides):
    """A fast quickstart: 64 MiB total at 256 MiB/s (~0.25 s simulated)."""
    params = dict(file_mib=16.0, procs=2, capacity_mib_s=256.0)
    params.update(overrides)
    return REGISTRY.build("quickstart", **params)


WINDOW = {"start_s": 0.05, "duration_s": 0.1}


class TestOstCrash:
    def test_crash_drops_and_requeues_then_recovers(self):
        spec = small_spec().with_fault("ost-crash", WINDOW)
        cluster = build(spec)
        result = execute(cluster)
        assert result.clients_finished
        assert cluster.rpcs_dropped > 0
        assert cluster.rpcs_retried >= cluster.rpcs_dropped
        oss = cluster.osses[0]
        assert not oss.offline
        handle = cluster.fault_handles[0]
        assert handle.injections == 2  # crash + recover

    def test_no_bytes_lost_or_duplicated(self):
        """Aborted transfers discard partial bytes; requeues redo them —
        the OST serves exactly the offered volume, once."""
        spec = small_spec().with_fault("ost-crash", WINDOW)
        cluster = build(spec)
        execute(cluster)
        offered = sum(
            p.pattern.total_bytes_hint()
            for j in spec.jobs
            for p in j.processes
        )
        assert cluster.osts[0].bytes_served == offered

    def test_ledger_balanced_after_recovery(self):
        spec = small_spec().with_fault("ost-crash", WINDOW)
        cluster = build(spec)
        execute(cluster)
        assert spec.policy.mechanism == "adaptbf"
        for handle in cluster.handles:
            assert handle.algorithm.records.total() == 0

    def test_crash_while_offline_rejected(self):
        spec = small_spec().with_fault("ost-crash", WINDOW)
        cluster = build(spec)
        oss = cluster.osses[0]
        oss.crash()
        with pytest.raises(RuntimeError):
            oss.crash()
        oss.recover()
        with pytest.raises(RuntimeError):
            oss.recover()

    def test_multi_ost_crash_targets_one_stack(self):
        spec = REGISTRY.build(
            "multiost", n_osts=2, file_mib=16.0, procs=2
        ).with_fault("ost-crash", dict(WINDOW, ost=1))
        cluster = build(spec)
        result = execute(cluster)
        assert result.clients_finished
        assert cluster.osses[0].rpcs_dropped == 0
        assert cluster.osses[1].rpcs_dropped > 0

    def test_bad_ost_index_fails_at_build(self):
        spec = small_spec().with_fault("ost-crash", dict(WINDOW, ost=5))
        with pytest.raises(ValueError, match="OST index 5"):
            build(spec)


class TestOstDegrade:
    def test_capacity_restored_and_run_slower(self):
        healthy = execute(build(small_spec())).duration_s
        spec = small_spec().with_fault(
            "ost-degrade", dict(WINDOW, factor=0.1)
        )
        cluster = build(spec)
        result = execute(cluster)
        assert result.clients_finished
        assert cluster.osts[0].capacity_bps == 256.0 * (1 << 20)
        assert result.duration_s > healthy
        assert cluster.fault_handles[0].injections == 2

    def test_window_open_at_the_end_does_not_inflate_utilization(self):
        """The same bytes read the same utilization, whether the window
        closed before the run ended or is still open."""
        utilization = []
        for duration_s in (10.0, 0.8):
            spec = (
                REGISTRY.build("quickstart")
                .with_run(duration_s=1.0)
                .with_fault(
                    "ost-degrade", {"start_s": 0.2, "duration_s": duration_s}
                )
            )
            utilization.append(execute(build(spec)).ost_utilization)
        assert utilization[0] == utilization[1] <= 1.0


class TestNetDelay:
    def test_latency_inflated_then_restored(self):
        spec = REGISTRY.build(
            "quickstart",
            file_mib=16.0,
            procs=2,
            capacity_mib_s=256.0,
        ).with_fault("net-delay", dict(WINDOW, factor=1.0, extra_s=0.05))
        cluster = build(spec)
        baseline = cluster.network.latency_s
        result = execute(cluster)
        assert result.clients_finished
        assert cluster.network.latency_s == baseline

    def test_partition_holds_then_floods(self):
        spec = small_spec().with_fault(
            "net-delay", dict(WINDOW, partition=True)
        )
        cluster = build(spec)
        result = execute(cluster)
        assert result.clients_finished
        assert not cluster.network.partitioned
        assert cluster.network.rpcs_held > 0

    def test_set_latency_validation(self):
        cluster = build(small_spec())
        with pytest.raises(ValueError):
            cluster.network.set_latency(-0.1)


class TestClientChurn:
    def test_leaves_and_joins(self):
        spec = small_spec(duration=2.0).with_fault(
            "client-churn",
            dict(WINDOW, leaves=2, joins=2, job="science"),
        )
        cluster = build(spec)
        initial = len(cluster.clients)
        result = execute(cluster)
        assert result.clients_finished  # killed clients count as finished
        assert len(cluster.clients) == initial + 2
        joined = [c.io.client_id for c in cluster.clients[initial:]]
        assert joined == ["science.join0", "science.join1"]
        assert cluster.fault_handles[0].injections == 4

    def test_victims_deterministic_per_seed(self):
        def victims(seed):
            spec = small_spec(duration=1.0).with_run(seed=seed).with_fault(
                "client-churn", dict(WINDOW, leaves=2, joins=0)
            )
            cluster = build(spec)
            execute(cluster)
            return [
                c.io.client_id
                for c in cluster.clients
                if c.process.triggered and not c.finished
            ]

        assert victims(1) == victims(1)

    def test_unknown_job_rejected_at_build(self):
        spec = small_spec().with_fault(
            "client-churn", dict(WINDOW, job="ghost")
        )
        with pytest.raises(ValueError, match="unknown job"):
            build(spec)


class TestLifecycle:
    def test_teardown_before_window_cancels_injection(self):
        spec = small_spec().with_fault("ost-crash", WINDOW)
        cluster = build(spec)
        cluster.fault_handles[0].teardown()
        result = execute(cluster)
        assert result.clients_finished
        assert cluster.fault_handles[0].injections == 0
        assert cluster.rpcs_dropped == 0

    def test_fault_window_is_union(self):
        spec = (
            small_spec()
            .with_fault("ost-crash", {"start_s": 0.2, "duration_s": 0.1})
            .with_fault("net-delay", {"start_s": 0.05, "duration_s": 0.05})
        )
        cluster = build(spec)
        assert cluster.fault_window() == pytest.approx((0.05, 0.3))
        cluster.teardown()

    def test_no_faults_no_window(self):
        cluster = build(small_spec())
        assert cluster.fault_window() is None
        assert cluster.fault_handles == []
