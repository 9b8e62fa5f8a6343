"""Unit tests for the declarative spec IR (compile--bind--solve front end)."""

import numpy as np
import pytest

from repro.core.builder import ChainBuilder
from repro.core.spec import (
    CompiledSpecCache,
    ModelSpec,
    RateExpr,
    SpecBuilder,
    SpecError,
    const,
    param,
    rate_min,
)


def _toy_spec():
    b = SpecBuilder()
    lam, mu, h = param("lam"), param("mu"), param("h")
    b.add_rate("up", "degraded", lam * (1.0 - h))
    b.add_rate("up", "lost", lam * h)
    b.add_rate("degraded", "up", mu)
    b.add_rate("degraded", "lost", 2.0 * lam)
    return b.build("toy")


def _toy_env(lam=0.25, mu=40.0, h=0.125):
    return {"lam": lam, "mu": mu, "h": h}


def _toy_reference(env):
    b = ChainBuilder()
    b.add_rate("up", "degraded", env["lam"] * (1.0 - env["h"]))
    b.add_rate("up", "lost", env["lam"] * env["h"])
    b.add_rate("degraded", "up", env["mu"])
    b.add_rate("degraded", "lost", 2.0 * env["lam"])
    return b.build("up")


class TestRateExpr:
    def test_arithmetic_matches_python(self):
        x, y = param("x"), param("y")
        env = {"x": 3.5, "y": 0.25}
        assert (x + y).evaluate(env) == 3.5 + 0.25
        assert (x - y).evaluate(env) == 3.5 - 0.25
        assert (x * y).evaluate(env) == 3.5 * 0.25
        assert (x / y).evaluate(env) == 3.5 / 0.25
        assert (2.0 * x + 1).evaluate(env) == 2.0 * 3.5 + 1
        assert (1.0 - y).evaluate(env) == 1.0 - 0.25

    def test_min_clamps(self):
        h = rate_min(param("h"), 1.0)
        assert h.evaluate({"h": 0.5}) == 0.5
        assert h.evaluate({"h": 7.0}) == 1.0

    def test_vectorized_evaluation_matches_scalar(self):
        expr = param("n") * param("lam") * (1.0 - rate_min(param("h"), 1.0))
        ns = np.array([4, 8, 16])
        lams = np.array([1e-4, 2e-4, 3e-4])
        hs = np.array([0.0, 0.5, 2.0])
        vec = expr.evaluate({"n": ns, "lam": lams, "h": hs})
        for i in range(3):
            scalar = expr.evaluate(
                {"n": int(ns[i]), "lam": float(lams[i]), "h": float(hs[i])}
            )
            assert vec[i] == scalar

    def test_missing_parameter_raises(self):
        with pytest.raises(SpecError, match="missing parameter 'lam'"):
            param("lam").evaluate({})

    def test_wrap_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            RateExpr.wrap("0.5")
        with pytest.raises(TypeError):
            RateExpr.wrap(True)
        assert const(2).evaluate({}) == 2.0

    def test_canonical_is_stable_and_ordered(self):
        e1 = param("a") + param("b") * 2.0
        e2 = param("a") + param("b") * 2.0
        assert e1.canonical() == e2.canonical() == "(a+(b*2.0))"
        assert (param("b") * 2.0 + param("a")).canonical() != e1.canonical()


class TestModelSpec:
    def test_validation(self):
        r = param("r")
        with pytest.raises(SpecError, match="at least one state"):
            ModelSpec("x", (), (), "a")
        with pytest.raises(SpecError, match="duplicate state"):
            ModelSpec("x", ("a", "a"), (), "a")
        with pytest.raises(SpecError, match="self-loop"):
            ModelSpec("x", ("a", "b"), (("a", "a", r),), "a")
        with pytest.raises(SpecError, match="unknown states"):
            ModelSpec("x", ("a", "b"), (("a", "c", r),), "a")
        with pytest.raises(SpecError, match="duplicate edge"):
            ModelSpec("x", ("a", "b"), (("a", "b", r), ("a", "b", r)), "a")
        with pytest.raises(SpecError, match="must be a RateExpr"):
            ModelSpec("x", ("a", "b"), (("a", "b", 2.0),), "a")
        with pytest.raises(SpecError, match="initial state"):
            ModelSpec("x", ("a", "b"), (("a", "b", r),), "c")

    def test_param_names_sorted_union(self):
        spec = _toy_spec()
        assert spec.param_names == ("h", "lam", "mu")

    def test_spec_hash_is_content_addressed(self):
        assert _toy_spec().spec_hash == _toy_spec().spec_hash
        b = SpecBuilder()
        b.add_rate("up", "lost", param("lam"))
        other = b.build("toy")  # same name, different structure
        assert other.spec_hash != _toy_spec().spec_hash

    def test_spec_hash_sensitive_to_state_order(self):
        r = param("r")
        one = ModelSpec("x", ("a", "b", "c"), (("a", "b", r),), "a")
        two = ModelSpec("x", ("a", "c", "b"), (("a", "b", r),), "a")
        assert one.spec_hash != two.spec_hash

    def test_describe_lists_edges(self):
        text = _toy_spec().describe()
        assert "'up' -> 'degraded'" in text
        assert "lam" in text


class TestSpecBuilder:
    def test_states_register_in_insertion_order(self):
        spec = _toy_spec()
        assert spec.states == ("up", "degraded", "lost")
        assert spec.initial_state == "up"

    def test_parallel_rates_accumulate_left_nested(self):
        b = SpecBuilder()
        b.add_rate("a", "b", param("x"))
        b.add_rate("a", "b", param("y"))
        b.add_rate("a", "b", param("z"))
        (edge,) = b.build("acc").edges
        assert edge[2].canonical() == "((x+y)+z)"

    def test_self_loop_rejected(self):
        with pytest.raises(SpecError):
            SpecBuilder().add_rate("a", "a", param("x"))


class TestCompiledChain:
    def test_bind_matches_chain_builder_bitwise(self):
        env = _toy_env()
        bound = _toy_spec().compile().bind(env)
        reference = _toy_reference(env)
        assert bound.states == reference.states
        assert bound.initial_state == reference.initial_state
        assert np.array_equal(
            bound.generator_matrix(), reference.generator_matrix()
        )
        assert (
            bound.mean_time_to_absorption()
            == reference.mean_time_to_absorption()
        )

    def test_zero_rate_keeps_topology_fixed(self):
        """h = 1 zeroes the up->degraded edge; the compiled chain writes an
        explicit 0.0 instead of dropping the edge, so the matrix still
        matches the builder's (which drops it — same zero entry)."""
        env = _toy_env(h=1.0)
        bound = _toy_spec().compile().bind(env)
        reference = _toy_reference(env)
        assert np.array_equal(
            bound.generator_matrix(), reference.generator_matrix()
        )

    def test_bind_batch_bitwise_equals_per_point_bind(self):
        compiled = _toy_spec().compile()
        envs = [
            _toy_env(0.25, 40.0, 0.125),
            _toy_env(0.5, 10.0, 0.0),
            _toy_env(1e-3, 250.0, 1.0),
        ]
        stacked = {
            name: np.array([e[name] for e in envs])
            for name in compiled.spec.param_names
        }
        batch = compiled.bind_batch(stacked)
        assert len(batch) == 3
        for chain, env in zip(batch, envs):
            single = compiled.bind(env)
            assert chain.states == single.states
            assert np.array_equal(
                chain.generator_matrix(), single.generator_matrix()
            )
            assert (
                chain.mean_time_to_absorption()
                == single.mean_time_to_absorption()
            )

    def test_bind_batch_scalar_broadcast(self):
        compiled = _toy_spec().compile()
        stacked = {"lam": np.array([0.25, 0.5]), "mu": 40.0, "h": 0.125}
        batch = compiled.bind_batch(stacked)
        assert len(batch) == 2
        assert np.array_equal(
            batch[0].generator_matrix(),
            compiled.bind(_toy_env(0.25, 40.0, 0.125)).generator_matrix(),
        )

    def test_mismatched_array_lengths_raise(self):
        compiled = _toy_spec().compile()
        with pytest.raises(SpecError, match="disagree on length"):
            compiled.bind_batch(
                {"lam": np.array([1.0, 2.0]), "mu": np.array([1.0]), "h": 0.0}
            )

    def test_missing_env_parameter_raises(self):
        compiled = _toy_spec().compile()
        with pytest.raises(SpecError, match="missing"):
            compiled.bind({"lam": 0.25, "mu": 40.0})

    def test_bound_chains_are_independent(self):
        compiled = _toy_spec().compile()
        first = compiled.bind(_toy_env())
        q_before = first.generator_matrix()
        second = compiled.bind(_toy_env(lam=0.9))
        second.mean_time_to_absorption()
        assert np.array_equal(first.generator_matrix(), q_before)

    def test_counters(self):
        compiled = _toy_spec().compile()
        assert compiled.hits == 0
        compiled.bind(_toy_env())
        stacked = {
            name: np.array([v, v])
            for name, v in _toy_env().items()
        }
        compiled.bind_batch(stacked)
        assert compiled.hits == 3  # one scalar bind + two batched points


class TestCompiledSpecCache:
    def test_compile_once_then_hit(self):
        cache = CompiledSpecCache()
        a = cache.get_or_compile(_toy_spec())
        b = cache.get_or_compile(_toy_spec())
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hashes() == (a.spec_hash,)

    def test_distinct_specs_get_distinct_entries(self):
        cache = CompiledSpecCache()
        cache.get_or_compile(_toy_spec())
        b = SpecBuilder()
        b.add_rate("a", "b", param("x"))
        cache.get_or_compile(b.build("other"))
        assert len(cache) == 2
        assert cache.misses == 2

    def test_poisoned_entry_detected_and_recompiled(self):
        cache = CompiledSpecCache()
        real = cache.get_or_compile(_toy_spec())
        b = SpecBuilder()
        b.add_rate("a", "b", param("x"))
        decoy = b.build("decoy").compile()
        cache._chains[real.spec_hash] = decoy
        again = cache.get_or_compile(_toy_spec())
        assert again is not decoy
        assert again.spec_hash == real.spec_hash
        assert cache.structure_rebuilds == 1
        # The recompiled entry replaces the poison; next lookup hits.
        hits = cache.hits
        assert cache.get_or_compile(_toy_spec()) is again
        assert cache.hits == hits + 1

    def test_clear(self):
        cache = CompiledSpecCache()
        cache.get_or_compile(_toy_spec())
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.structure_rebuilds) == (0, 0, 0)
