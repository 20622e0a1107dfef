"""Unit tests for composite events and RNG streams."""

import importlib.util

import pytest

from repro.sim import AllOf, AnyOf, Environment, RngStreams


def test_any_of_triggers_on_first():
    env = Environment()
    t1 = env.timeout(1.0, value="fast")
    t2 = env.timeout(5.0, value="slow")
    log = []

    def body(env):
        result = yield AnyOf(env, [t1, t2])
        log.append((env.now, [result[e] for e in result]))

    env.process(body(env))
    env.run()
    assert log == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    env = Environment()
    t1 = env.timeout(1.0, value="a")
    t2 = env.timeout(5.0, value="b")
    log = []

    def body(env):
        result = yield AllOf(env, [t1, t2])
        log.append((env.now, sorted(result[e] for e in result)))

    env.process(body(env))
    env.run()
    assert log == [(5.0, ["a", "b"])]


def test_empty_all_of_succeeds_immediately():
    env = Environment()
    log = []

    def body(env):
        result = yield AllOf(env, [])
        log.append((env.now, len(result)))

    env.process(body(env))
    env.run()
    assert log == [(0.0, 0)]


def test_condition_value_mapping_semantics():
    env = Environment()
    t1 = env.timeout(1.0, value="x")
    cond = AnyOf(env, [t1])
    env.run()
    value = cond.value
    assert t1 in value
    assert value[t1] == "x"
    assert len(value) == 1
    assert value.todict() == {t1: "x"}
    with pytest.raises(KeyError):
        _ = value[env.event()]


def test_condition_rejects_foreign_events():
    env_a, env_b = Environment(), Environment()
    foreign = env_b.timeout(1.0)
    with pytest.raises(ValueError):
        AnyOf(env_a, [foreign])


def test_condition_failure_propagates():
    env = Environment()
    bad = env.event()
    good = env.timeout(5.0)
    cond = AllOf(env, [bad, good])
    cond.defused()
    bad.fail(ValueError("inner"))
    env.run()
    assert not cond.ok
    assert isinstance(cond.value, ValueError)


def test_env_convenience_constructors():
    env = Environment()
    t1, t2 = env.timeout(1.0), env.timeout(2.0)
    assert type(env.any_of([t1, t2])).__name__ == "AnyOf"
    assert type(env.all_of([t1, t2])).__name__ == "AllOf"


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="drawing from RngStreams requires numpy (repro[fast])",
)
class TestRngStreams:
    def test_same_seed_same_streams(self):
        a = RngStreams(7).get("x").random(5)
        b = RngStreams(7).get("x").random(5)
        assert (a == b).all()

    def test_different_names_differ(self):
        s = RngStreams(7)
        assert not (s.get("x").random(5) == s.get("y").random(5)).all()

    def test_different_seeds_differ(self):
        a = RngStreams(1).get("x").random(5)
        b = RngStreams(2).get("x").random(5)
        assert not (a == b).all()

    def test_stream_is_cached(self):
        s = RngStreams(7)
        assert s.get("x") is s.get("x")

    def test_spawn_namespaces_are_reproducible(self):
        a = RngStreams(7).spawn("ns").get("x").random(3)
        b = RngStreams(7).spawn("ns").get("x").random(3)
        assert (a == b).all()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("abc")  # type: ignore[arg-type]
