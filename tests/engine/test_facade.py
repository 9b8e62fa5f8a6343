"""The unified repro.evaluate() facade."""

import math

import pytest

import repro
from repro import ALL_CONFIGURATIONS, Configuration, InternalRaid, Parameters
from repro.core.solvers import SolveOptions
from repro.engine.facade import evaluate
from repro.sim import accelerated_parameters, estimate_mttdl


class TestAnalyticParity:
    @pytest.mark.parametrize("config", ALL_CONFIGURATIONS, ids=lambda c: c.key)
    def test_matches_pre_engine_entry_point(self, config, baseline):
        """repro.evaluate() must equal the old evaluate()/reliability path
        for every one of the paper's nine configurations."""
        new = evaluate(config, baseline)
        old = config.reliability(baseline, "exact")
        assert new.mttdl_hours == old.mttdl_hours
        assert new.events_per_pb_year == old.events_per_pb_year

    @pytest.mark.solvers
    @pytest.mark.parametrize("config", ALL_CONFIGURATIONS, ids=lambda c: c.key)
    def test_sparse_backend_agrees(self, config, baseline):
        dense = evaluate(config, baseline)
        sparse = evaluate(
            config, baseline, options=SolveOptions(backend="sparse_iterative")
        )
        assert math.isclose(
            sparse.mttdl_hours, dense.mttdl_hours, rel_tol=1e-9
        )

    def test_exact_rates_differ_from_approx(self, baseline):
        config = ALL_CONFIGURATIONS[4]
        approx = evaluate(config, baseline)
        exact = evaluate(
            config, baseline, options=SolveOptions(rates_method="exact")
        )
        assert approx.mttdl_hours != exact.mttdl_hours


class TestClosedFormParity:
    @pytest.mark.parametrize("config", ALL_CONFIGURATIONS, ids=lambda c: c.key)
    def test_matches_pre_engine_entry_point(self, config, baseline):
        new = evaluate(
            config, baseline, options=SolveOptions(backend="closed_form")
        )
        old = config.reliability(baseline, "approx")
        assert new.mttdl_hours == old.mttdl_hours


class TestMonteCarlo:
    def test_matches_estimator_mean(self):
        base = Parameters.with_overrides(node_set_size=12, redundancy_set_size=6)
        acc = accelerated_parameters(base, failure_scale=200.0)
        config = Configuration(InternalRaid.NONE, 1)
        result = evaluate(
            config,
            acc,
            options=SolveOptions(backend="monte_carlo"),
            replicas=10,
            seed=7,
        )
        mc = estimate_mttdl(config, acc, replicas=10, seed=7)
        assert result.mttdl_hours == mc.mean_hours

    def test_rebuild_override_rejected(self, baseline):
        with pytest.raises(ValueError, match="rebuild"):
            evaluate(
                ALL_CONFIGURATIONS[0],
                baseline,
                options=SolveOptions(backend="monte_carlo"),
                rebuild=object(),
            )


class TestApiSurface:
    def test_exported_from_package_root(self):
        assert repro.evaluate is evaluate

    def test_default_params_is_baseline(self):
        config = ALL_CONFIGURATIONS[0]
        assert (
            evaluate(config).mttdl_hours
            == evaluate(config, Parameters.baseline()).mttdl_hours
        )

    def test_evaluate_all_still_exported(self, baseline):
        pairs = repro.evaluate_all(baseline, ALL_CONFIGURATIONS[:2])
        assert len(pairs) == 2
        config, result = pairs[0]
        assert result.mttdl_hours == config.reliability(baseline).mttdl_hours
