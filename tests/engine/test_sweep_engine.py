"""SweepEngine: pool-vs-serial equality, disk caching, sweeps and grids."""

import pytest

from repro import ALL_CONFIGURATIONS, Parameters, SweepEngine
from repro.engine import Axis, DiskCache
from repro.models.configurations import sensitivity_configurations


def _grid_pairs(baseline, n_x=6):
    xs = [50_000.0 * k for k in range(2, 2 + n_x)]
    return [
        (config, baseline.replace(node_mttf_hours=x))
        for x in xs
        for config in ALL_CONFIGURATIONS
    ]


class TestPoolVsSerial:
    def test_bitwise_identical(self, baseline):
        """The acceptance criterion: pooled evaluation returns exactly the
        serial floats for every point."""
        pairs = _grid_pairs(baseline)
        serial = SweepEngine(jobs=1).evaluate_many(pairs)
        pooled = SweepEngine(jobs=4).evaluate_many(pairs)
        assert [r.mttdl_hours for r in pooled] == [r.mttdl_hours for r in serial]
        assert [r.events_per_pb_year for r in pooled] == [
            r.events_per_pb_year for r in serial
        ]

    def test_serial_matches_pre_engine_loop(self, baseline):
        pairs = _grid_pairs(baseline, n_x=2)
        engine = SweepEngine(jobs=1)
        got = engine.evaluate_many(pairs)
        expected = [c.reliability(p, "exact") for c, p in pairs]
        assert [r.mttdl_hours for r in got] == [r.mttdl_hours for r in expected]

    def test_closed_form_matches_pre_engine_loop(self, baseline):
        pairs = _grid_pairs(baseline, n_x=2)
        got = SweepEngine(jobs=4).evaluate_many(pairs, method="closed_form")
        expected = [c.reliability(p, "approx") for c, p in pairs]
        assert [r.mttdl_hours for r in got] == [r.mttdl_hours for r in expected]

    def test_forced_pool_bitwise_identical(self, baseline, usable_cpus):
        """Engage the real process pool even on a single-CPU host (where
        the gate would otherwise decline it) and check both the floats and
        the worker counters coming back."""
        pairs = _grid_pairs(baseline)
        serial = SweepEngine(jobs=1).evaluate_many(pairs)
        usable_cpus(4)
        pooled_engine = SweepEngine(jobs=4)
        pooled = pooled_engine.evaluate_many(pairs)
        assert [r.mttdl_hours for r in pooled] == [r.mttdl_hours for r in serial]
        # Worker spec counters are folded into the engine's provenance.
        prov = pooled_engine.provenance()
        assert prov.spec_misses > 0
        assert prov.spec_hashes  # workers report the shapes they compiled

    def test_monte_carlo_rejected(self, baseline):
        with pytest.raises(ValueError, match="monte_carlo"):
            SweepEngine().evaluate_many(
                [(ALL_CONFIGURATIONS[0], baseline)], method="monte_carlo"
            )


class TestDiskCacheIntegration:
    def test_round_trip_is_bitwise(self, baseline, tmp_path):
        pairs = _grid_pairs(baseline, n_x=1)
        engine = SweepEngine(jobs=1, cache=tmp_path)
        first = engine.evaluate_many(pairs)
        assert engine.cache.misses == len(pairs)
        second = engine.evaluate_many(pairs)
        assert engine.cache.hits == len(pairs)
        assert [r.mttdl_hours for r in second] == [r.mttdl_hours for r in first]

    def test_cache_shared_between_engines(self, baseline, tmp_path):
        pairs = _grid_pairs(baseline, n_x=1)
        SweepEngine(jobs=1, cache=tmp_path).evaluate_many(pairs)
        fresh = SweepEngine(jobs=1, cache=tmp_path)
        results = fresh.evaluate_many(pairs)
        assert fresh.cache.hits == len(pairs)
        assert fresh.cache.misses == 0
        expected = [c.reliability(p, "exact") for c, p in pairs]
        assert [r.mttdl_hours for r in results] == [
            r.mttdl_hours for r in expected
        ]

    def test_parameter_change_invalidates(self, baseline, tmp_path):
        config = ALL_CONFIGURATIONS[0]
        engine = SweepEngine(jobs=1, cache=tmp_path)
        engine.evaluate(config, baseline)
        changed = baseline.replace(rebuild_command_bytes=64 * 1024)
        engine.evaluate(config, changed)
        # Second point must be computed, not served from the first's entry.
        assert engine.cache.misses == 2
        assert (
            engine.evaluate(config, changed).mttdl_hours
            == config.reliability(changed, "exact").mttdl_hours
        )

    def test_method_change_invalidates(self, baseline, tmp_path):
        config = ALL_CONFIGURATIONS[3]
        engine = SweepEngine(jobs=1, cache=tmp_path)
        exact = engine.evaluate(config, baseline, method="analytic")
        approx = engine.evaluate(config, baseline, method="closed_form")
        assert engine.cache.misses == 2
        assert exact.mttdl_hours != approx.mttdl_hours

    def test_cache_true_uses_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = SweepEngine(cache=True)
        assert engine.cache is not None
        assert engine.cache.directory.name == ".repro_cache"


class TestSweepAndGrid:
    def test_sweep_result_shape(self, baseline):
        engine = SweepEngine(jobs=1)
        result = engine.sweep(
            sensitivity_configurations(),
            Axis("node_set_size", (16, 64), label="node set size N"),
            base_params=baseline,
        )
        assert result.axis_name == "node_set_size"
        assert result.axis_values == (16, 64)
        assert result.x_label == "node set size N"
        assert len(result.series) == 3
        assert all(len(s.values) == 2 for s in result.series)
        assert len(result.points) == 6
        assert result.provenance is not None
        assert result.provenance.jobs == 1

    def test_sweep_matches_direct_evaluation(self, baseline):
        engine = SweepEngine(jobs=1)
        result = engine.sweep(
            sensitivity_configurations(),
            Axis("drive_mttf_hours", (100_000.0, 750_000.0)),
            base_params=baseline,
        )
        for point in result.points:
            expected = point.config.reliability(
                baseline.replace(drive_mttf_hours=point.x), "exact"
            )
            assert point.mttdl_hours == expected.mttdl_hours

    def test_axis_transform(self, baseline):
        axis = Axis(
            "link_speed",
            (1.0, 10.0),
            transform=lambda p, x: p.with_link_speed_gbps(x),
        )
        assert axis.apply(baseline, 1.0).link_speed_bps == 1e9

    def test_axis_casts_to_field_type(self, baseline):
        axis = Axis("node_set_size", (16.0,))
        applied = axis.apply(baseline, 16.0)
        assert applied.node_set_size == 16
        assert isinstance(applied.node_set_size, int)

    def test_grid_covers_product(self, baseline):
        engine = SweepEngine(jobs=1)
        points = engine.grid(
            sensitivity_configurations()[:2],
            [
                Axis("node_set_size", (16, 64)),
                Axis("drives_per_node", (4, 12)),
            ],
            base_params=baseline,
        )
        assert len(points) == 2 * 2 * 2
        first = points[0]
        assert first.coords == (("node_set_size", 16), ("drives_per_node", 4))
        expected = first.config.reliability(first.params, "exact")
        assert first.result.mttdl_hours == expected.mttdl_hours

    def test_grid_needs_axes(self, baseline):
        with pytest.raises(ValueError):
            SweepEngine().grid(sensitivity_configurations(), [])


class TestProvenance:
    def test_counters_accumulate(self, baseline):
        engine = SweepEngine(jobs=1)
        engine.evaluate_many([(c, baseline) for c in ALL_CONFIGURATIONS])
        prov = engine.provenance()
        assert prov.spec_misses > 0
        assert prov.jobs == 1
        assert not prov.cache_enabled
        assert "compiled specs" in prov.describe()
        # The provenance names the exact chain structures it solved.
        assert len(prov.spec_hashes) == prov.spec_misses
        assert all(len(h) == 64 for h in prov.spec_hashes)

    def test_verbose_kwarg_removed(self, baseline):
        with pytest.raises(TypeError):
            SweepEngine(jobs=1, verbose=True)
