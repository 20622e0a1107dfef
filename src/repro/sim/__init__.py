"""Discrete-event simulation engine.

This subpackage is the execution substrate for the whole reproduction: the
simulated Lustre data path (:mod:`repro.lustre`), the synthetic workloads
(:mod:`repro.workloads`) and the AdapTBF control loop (:mod:`repro.core`) all
run as cooperating processes on a single :class:`~repro.sim.engine.Environment`.

The design follows the classic process-interaction style (as popularised by
SimPy): simulation processes are Python generators that ``yield`` events; the
environment advances a virtual clock from event to event, so a multi-hour
storage experiment executes in milliseconds of wall time while preserving the
exact interleaving semantics of the real system.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(proc(env, "b", 2.0))
>>> _ = env.process(proc(env, "a", 1.0))
>>> env.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from repro.sim.engine import Environment, SimulationError
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RngStreams",
    "SimulationError",
    "Timeout",
]
