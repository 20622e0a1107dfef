"""Behavioral tests for the centralized contenders: ``sdn`` and ``vc``.

The shared protocol contracts live in ``test_mechanism_invariants``; this
module pins what makes these two mechanisms *centralized*: the sdn
control-plane model (latency ages the view, pushes land a round-trip
late, pushes to crashed OSTs drop), vc admission/preemption bookkeeping
(overbooked budget, waitlist, reservation ledger), and — because both
route every control-plane effect through ordinary simulation timeouts —
event traces that two runs of one spec dispatch identically.
"""

import pytest

from repro.cluster.builder import build
from repro.scenarios import REGISTRY
from repro.sim.tracediff import diff_streams, format_report, trace_scenario

MIB = 1 << 20


def centralized(spec, mechanism, **params):
    return spec.with_policy(mechanism=mechanism, mechanism_params=params)


class TestSdnControlPlane:
    def test_zero_latency_controller_is_an_oracle(
        self, make_mechanism_cluster
    ):
        cluster = make_mechanism_cluster("sdn", volume=512 * MIB)
        cluster.env.run(until=0.55)  # mid-run: both jobs still writing
        agent = cluster.handles[0]
        assert agent.rounds_run >= 4
        # Rules exist for both active jobs, node-weighted: j1 (2 nodes)
        # outranks and out-rates j0 (1 node).
        rules = {
            name: cluster.oss.policy.get_rule(name)
            for name in cluster.oss.policy.rule_names()
        }
        assert set(rules) == {"sdn_j0", "sdn_j1"}
        assert rules["sdn_j1"].rate > rules["sdn_j0"].rate
        # No flight time: updates land the instant they are decided.
        assert agent.rule_lag_s == pytest.approx(0.0, abs=1e-9)
        cluster.teardown()

    def test_latency_delays_and_ages_rule_updates(
        self, make_mechanism_cluster
    ):
        latency = 0.15
        cluster = make_mechanism_cluster(
            "sdn",
            mechanism_params={"ctrl_latency_s": latency},
            volume=512 * MIB,
        )
        cluster.env.run(until=1.05)
        agent = cluster.handles[0]
        assert agent.rounds_run >= 1
        # Lag = observation age at decision time (>= one-way latency,
        # rounded up to the sampling grid) + the return flight.
        assert agent.rule_lag_s >= 2 * latency - 1e-9
        cluster.teardown()

    def test_batching_skips_decision_rounds(self, make_mechanism_cluster):
        cluster = make_mechanism_cluster(
            "sdn", mechanism_params={"batch_rounds": 3}, volume=512 * MIB
        )
        cluster.env.run(until=1.05)  # 10 observation ticks
        agent = cluster.handles[0]
        assert 1 <= agent.rounds_run <= 4  # ~every 3rd tick, not all 10
        cluster.teardown()

    def test_control_plane_params_validated(self):
        from repro.core.mechanism import MECHANISMS

        with pytest.raises(ValueError, match="ctrl_latency_s"):
            MECHANISMS.build("sdn", ctrl_latency_s=-0.1)
        with pytest.raises(ValueError, match="batch_rounds"):
            MECHANISMS.build("sdn", batch_rounds=0)
        with pytest.raises(ValueError, match="headroom"):
            MECHANISMS.build("sdn", headroom=1.0)
        with pytest.raises(ValueError, match="demand_slack"):
            MECHANISMS.build("sdn", demand_slack=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "param", ["ctrl_latency_s", "staleness_s", "demand_slack"]
    )
    def test_non_finite_control_plane_params_rejected(self, param, value):
        from repro.core.mechanism import MECHANISMS

        with pytest.raises(ValueError, match=f"^{param} must be a finite"):
            MECHANISMS.build("sdn", **{param: value})


class TestVirtualCircuits:
    def test_admission_in_priority_order_within_overbooked_budget(
        self, make_mechanism_cluster
    ):
        # Three jobs with 1/2/3 nodes each request 1.5·T·n/Σn against a
        # 1.2·T budget, greedily in priority order: j2 (0.75T) fits, j1
        # (0.5T) would overflow and is denied, j0 (0.25T) still fits.
        cluster = make_mechanism_cluster("vc", n_jobs=3, volume=16 * MIB)
        table = cluster.handles[0]
        assert set(table.admitted) == {"j0", "j2"}
        assert table.waiting == ["j1"]
        assert table.circuits_admitted == 2
        assert table.circuits_denied == 1
        budget = 1.2 * cluster.spec.topology.max_token_rate(0)
        assert sum(table.admitted.values()) <= budget + 1e-9
        cluster.teardown()

    def test_denied_jobs_still_finish_via_fallback(
        self, make_mechanism_cluster
    ):
        cluster = make_mechanism_cluster("vc", n_jobs=3, volume=8 * MIB)
        cluster.env.run(until=cluster.all_clients_done())
        assert all(
            client.process.processed for client in cluster.clients
        )
        cluster.teardown()

    def test_idle_circuit_preempted_for_backlogged_waiter(
        self, make_mechanism_cluster
    ):
        # The admitted circuit holders (j0, j2) write small files, finish,
        # and go idle while denied j1 still has a large backlog: after
        # ``idle_rounds`` consecutive idle audits the table must preempt
        # the idle circuits and admit the backlogged waiter into the
        # freed budget.
        cluster = make_mechanism_cluster(
            "vc", n_jobs=3, volume=(8 * MIB, 512 * MIB, 8 * MIB)
        )
        table = cluster.handles[0]
        assert table.waiting == ["j1"]
        cluster.env.run(until=cluster.all_clients_done())
        assert table.circuits_preempted >= 1
        assert "j1" in table.admitted
        assert set(table.admitted).isdisjoint(table.waiting)
        cluster.teardown()

    def test_reservation_ledger_tracks_usage(self, make_mechanism_cluster):
        cluster = make_mechanism_cluster("vc", volume=32 * MIB)
        cluster.env.run(until=cluster.all_clients_done())
        table = cluster.handles[0]
        util = table.reservation_util
        assert util is not None and util >= 0.0
        cluster.teardown()
        # Teardown settles the ledger: time advancing past it must not
        # grow the reserved integral any further.
        settled = table.reservation_util
        cluster.env.run()
        assert table.reservation_util == settled

    def test_admission_params_validated(self):
        from repro.core.mechanism import MECHANISMS

        with pytest.raises(ValueError, match="overbook"):
            MECHANISMS.build("vc", overbook=0.9)
        with pytest.raises(ValueError, match="request_factor"):
            MECHANISMS.build("vc", request_factor=0.0)
        with pytest.raises(ValueError, match="idle_rounds"):
            MECHANISMS.build("vc", idle_rounds=0)

    @pytest.mark.parametrize(
        "param, value, message",
        [
            ("overbook", float("nan"), "overbook must be >= 1, got nan"),
            (
                "request_factor",
                float("nan"),
                "request_factor must be a finite positive number, got nan",
            ),
            (
                "request_factor",
                float("inf"),
                "request_factor must be a finite positive number, got inf",
            ),
        ],
    )
    def test_non_finite_admission_params_rejected(self, param, value, message):
        """These used to build a table that admitted nothing, silently."""
        from repro.core.mechanism import MECHANISMS

        with pytest.raises(ValueError) as exc:
            MECHANISMS.build("vc", **{param: value})
        assert str(exc.value) == message

    def test_unbounded_overbook_admits_every_request(
        self, make_mechanism_cluster
    ):
        cluster = make_mechanism_cluster(
            "vc", mechanism_params={"overbook": float("inf")}, n_jobs=3
        )
        table = cluster.handles[0]
        assert set(table.admitted) == {"j0", "j1", "j2"}
        assert table.waiting == []
        assert table.circuits_denied == 0
        cluster.teardown()


class TestTraceParity:
    """Two runs of one centralized spec dispatch identical event streams."""

    @pytest.mark.parametrize(
        "mechanism,params",
        [("sdn", {"ctrl_latency_s": 0.15}), ("vc", {})],
        ids=["sdn", "vc"],
    )
    @pytest.mark.parametrize(
        "scenario,kwargs",
        [
            ("quickstart", {"file_mib": 32.0, "procs": 2}),
            (
                "burst-storm",
                {
                    "n_jobs": 3,
                    "duration_s": 2.0,
                    "data_scale": 0.05,
                    "time_scale": 0.05,
                },
            ),
        ],
        ids=["quickstart", "burst-storm"],
    )
    def test_two_runs_dispatch_identically(
        self, scenario, kwargs, mechanism, params
    ):
        spec = centralized(
            REGISTRY.build(scenario, **kwargs), mechanism, **params
        )
        report = diff_streams(
            spec.name,
            ("first run", "second run"),
            trace_scenario(spec),
            trace_scenario(spec),
        )
        assert report.equal, format_report(report)


class TestChaosReconvergence:
    """``ost-crash`` mid-control-round: stale state drops, tables balance."""

    def _crashed_spec(self, mechanism, **params):
        # Crash lands at 0.45 s — mid-round, with an sdn push (decided at
        # 0.4, landing at 0.55 under 0.15 s latency) in flight.
        spec = centralized(
            REGISTRY.build("quickstart", duration=3.0),
            mechanism,
            **params,
        )
        return spec.with_fault(
            "ost-crash", {"start_s": 0.45, "duration_s": 0.4}
        )

    def test_sdn_drops_stale_pushes_and_reconverges(self):
        spec = self._crashed_spec("sdn", ctrl_latency_s=0.15)
        cluster = build(spec)
        cluster.env.run(until=cluster.all_clients_done())
        agent = cluster.handles[0]
        # Pushes in flight when the OST died were dropped, never applied.
        assert agent.stale_drops >= 1
        # The controller kept running and re-converged after recovery:
        # decisions resumed and both jobs hold rules again.
        assert agent.rounds_run > 4
        assert set(cluster.oss.policy.rule_names()) <= {
            "sdn_science",
            "sdn_hog",
        }
        cluster.teardown()
        assert cluster.oss.policy.rule_names() == []

    def test_vc_table_stays_balanced_through_crash(self):
        spec = self._crashed_spec("vc")
        cluster = build(spec)
        cluster.env.run(until=cluster.all_clients_done())
        table = cluster.handles[0]
        # Ledger invariants hold after the crash/recovery cycle: no job
        # is both admitted and waiting, reserved rate fits the overbooked
        # budget, and the admission counters reconcile with the table.
        assert set(table.admitted).isdisjoint(table.waiting)
        budget = 1.2 * cluster.spec.topology.max_token_rate(0)
        assert sum(table.admitted.values()) <= budget + 1e-9
        churn = table.circuits_admitted - table.circuits_preempted
        assert churn >= len(table.admitted)
        assert table.reservation_util is not None
        cluster.teardown()
