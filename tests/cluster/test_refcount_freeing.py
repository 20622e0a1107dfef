"""Per-RPC and per-stream objects are freed by their reference count.

An :class:`~repro.lustre.rpc.Rpc` drops its reply callbacks as the reply
hops run (:mod:`repro.lustre.network`), and a write stream's completion
counter (:class:`~repro.lustre.client._Window`) is referenced only by its
stream and its RPCs.  So once an RPC is answered, and once a stream ends,
nothing keeps them alive, and they go without waiting for the cyclic
garbage collector.  A reference cycle through one of them, such as a
window that keeps its own bound method as an attribute, keeps every
finished stream's window alive until the collector runs, which raised the
peak memory of a long run.

The check runs a scenario with the collector off, then counts what is
still alive.  The cluster itself is a cycle, so what its live clients
hold stays: at most one window per unfinished client process, and at most
``window`` RPCs in flight for each.  Everything beyond that was kept
alive by a cycle.
"""

import gc

import pytest

from repro.cluster.builder import build
from repro.cluster.experiment import execute
from repro.lustre.client import _Window
from repro.lustre.rpc import Rpc
from repro.scenarios import REGISTRY


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@pytest.mark.parametrize("scenario", ["recompensation", "quickstart"])
def test_rpcs_and_windows_are_freed_without_the_collector(scenario):
    spec = REGISTRY.build(scenario)
    gc.collect()
    rpcs_before, windows_before = _live(Rpc), _live(_Window)
    gc.disable()
    try:
        cluster = build(spec)
        execute(cluster)
        running = [client for client in cluster.clients if not client.finished]
        rpcs = _live(Rpc) - rpcs_before
        windows = _live(_Window) - windows_before
    finally:
        gc.enable()
        gc.collect()
    assert rpcs <= sum(client.io.window for client in running)
    assert windows <= len(running)
    if scenario == "quickstart":
        assert not running and rpcs == windows == 0
