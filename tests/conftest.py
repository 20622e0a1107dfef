"""Shared stack-building fixtures (promoted from per-module helpers).

Several test modules used to carry copy-pasted ``build()``/``seq()``
helpers wiring up Ost → NRS policy → Oss → Network.  They live here once
now, as a fixture family:

* ``make_stack``            — single-OST stack under any NRS policy;
* ``make_controlled_stack`` — single-OST stack plus an AdapTBF
  System Stats Controller loop;
* ``make_multi_ost_stack``  — N independent per-OST stacks sharing one
  network (striping / decentralization tests);
* ``make_mechanism_cluster``— full spec→cluster pipeline for any
  *registered* mechanism name (the per-mechanism test modules build
  through this instead of hand-wiring specs);
* ``seq``                   — sequential-write client program factory.

All are *factories* taking the test's own ``Environment``, so a test can
build several stacks (or stacks at different capacities) while the
timing-sensitive defaults (io_threads=8, zero latency) stay in one place.
The raw ``build_stack`` and ``attach_controller`` functions live in
``tests/simstack.py`` (``build_stack`` is re-exported here) so modules
needing a picklable module-level helper can import it without depending
on the ambiguous ``conftest`` module name.
"""

import collections

import pytest
from simstack import MB, Stack, attach_controller, build_stack

from repro.lustre import Network, Oss, Ost
from repro.workloads.patterns import SequentialWritePattern

__all__ = ["MB", "Stack", "build_stack"]

ControlledStack = collections.namedtuple(
    "ControlledStack", "ost policy oss net controller"
)
MultiOstStack = collections.namedtuple("MultiOstStack", "osts osses net")


@pytest.fixture
def make_stack():
    return build_stack


@pytest.fixture
def make_controlled_stack():
    """Single-OST stack with an AdapTBF control loop already attached."""

    def _make(
        env,
        capacity_mbps=100,
        nodes=None,
        interval_s=0.1,
        io_threads=8,
        overhead_s=0.0,
    ):
        stack = build_stack(
            env, capacity_mbps=capacity_mbps, io_threads=io_threads
        )
        controller = attach_controller(
            env,
            stack.oss,
            nodes=nodes or {},
            max_token_rate=capacity_mbps,
            interval_s=interval_s,
            overhead_s=overhead_s,
        )
        return ControlledStack(*stack, controller)

    return _make


@pytest.fixture
def make_multi_ost_stack():
    """N independent per-OST stacks (own policy each) on one network."""

    def _make(
        env,
        n_osts=2,
        policy_cls=None,
        capacity_mbps=100,
        io_threads=8,
        latency_s=0.0,
    ):
        if policy_cls is None:
            from repro.lustre import FifoPolicy as policy_cls
        osts = [
            Ost(env, f"ost{i}", capacity_bps=capacity_mbps * MB)
            for i in range(n_osts)
        ]
        osses = [
            Oss(env, ost, policy_cls(env), io_threads=io_threads)
            for ost in osts
        ]
        net = Network(env, latency_s=latency_s)
        return MultiOstStack(osts, osses, net)

    return _make


@pytest.fixture
def make_mechanism_cluster():
    """``(mechanism, **overrides)`` → a built cluster running that mechanism.

    Runs the full ``ScenarioSpec`` → :func:`repro.cluster.builder.build`
    pipeline for any registered mechanism name, so per-mechanism test
    modules stop rebuilding clusters by hand: two sequential-write jobs
    (``j0`` with 1 node, ``j1`` with 2, …) on ``n_osts`` default-capacity
    OSTs, optionally under a fault.
    """

    def _make(
        mechanism,
        mechanism_params=None,
        n_jobs=2,
        volume=8 * MB,
        n_osts=1,
        duration_s=None,
        fault=None,
        fault_params=None,
        **policy_overrides,
    ):
        from repro.cluster.builder import build
        from repro.scenarios.spec import (
            PolicySpec,
            RunSpec,
            ScenarioSpec,
            TopologySpec,
        )
        from repro.workloads.spec import JobSpec, ProcessSpec

        volumes = (
            tuple(volume)
            if isinstance(volume, (tuple, list))
            else (int(volume),) * n_jobs
        )
        jobs = tuple(
            JobSpec(
                job_id=f"j{i}",
                nodes=i + 1,
                processes=(
                    ProcessSpec(SequentialWritePattern(int(volumes[i]))),
                ),
            )
            for i in range(n_jobs)
        )
        spec = ScenarioSpec(
            name="fixture",
            jobs=jobs,
            topology=TopologySpec(n_osts=n_osts),
            policy=PolicySpec(
                mechanism=mechanism,
                mechanism_params=mechanism_params or {},
                **policy_overrides,
            ),
            run=RunSpec(duration_s=duration_s),
        )
        if fault is not None:
            spec = spec.with_fault(fault, fault_params or {})
        return build(spec)

    return _make


@pytest.fixture
def seq():
    """``seq(total_bytes)`` → a client program writing that volume."""

    def _program(total_bytes):
        return SequentialWritePattern(total_bytes).program

    return _program
