"""Engine fault injection: damage must degrade to recomputation.

The acceptance bar: corrupted cache entries and killed pool workers must
yield results **bitwise identical** to a cold serial run.
"""

import pytest

from repro.engine import DiskCache, SweepEngine, point_payload_valid
from repro.models import Parameters
from repro.models.configurations import ALL_CONFIGURATIONS, all_configurations
from repro.runtime import faultpoints
from repro.verify import (
    corrupt_cache_dir,
    fault_drill,
    kill_worker_action,
    poison_spec_cache,
)
from repro.verify.faults import CACHE_CORRUPTION_MODES

pytestmark = pytest.mark.verify


def _mttdls(engine, pairs):
    return [r.mttdl_hours for r in engine.evaluate_many(pairs)]


@pytest.fixture(scope="module")
def pairs():
    params = Parameters.baseline()
    return [(config, params) for config in ALL_CONFIGURATIONS]


@pytest.fixture(scope="module")
def reference(pairs):
    """The cold, serial, cache-less truth."""
    return _mttdls(SweepEngine(pairs[0][1], jobs=1), pairs)


class TestFaultpoints:
    def test_fire_without_action_is_a_no_op(self):
        assert faultpoints.fire("nobody-listens") is None

    def test_install_fire_uninstall(self):
        calls = []
        faultpoints.install("unit-test-point", calls.append)
        try:
            assert "unit-test-point" in faultpoints.active()
            faultpoints.fire("unit-test-point", 42)
            assert calls == [42]
        finally:
            faultpoints.uninstall("unit-test-point")
        faultpoints.fire("unit-test-point", 43)
        assert calls == [42]

    def test_injected_context_restores(self):
        with faultpoints.injected("scoped-point", lambda: None):
            assert "scoped-point" in faultpoints.active()
        assert "scoped-point" not in faultpoints.active()

    def test_kill_worker_action_is_deferred(self):
        # Constructing the action must not exit the process.
        action = kill_worker_action(exit_code=3)
        assert callable(action)


class TestCacheCorruption:
    @pytest.mark.parametrize("mode", CACHE_CORRUPTION_MODES)
    def test_corrupt_cache_recomputes_bitwise(
        self, tmp_path, pairs, reference, mode
    ):
        """Warm a disk cache, vandalise every entry, re-read: identical
        numbers, damage counted, entries overwritten with good values."""
        cache = DiskCache(tmp_path, validator=point_payload_valid)
        engine = SweepEngine(pairs[0][1], jobs=1, cache=cache)
        assert _mttdls(engine, pairs) == reference  # warm
        damaged = corrupt_cache_dir(tmp_path, mode)
        assert damaged == len(pairs)
        assert _mttdls(engine, pairs) == reference
        assert cache.rejected == damaged
        # Third pass: the overwritten entries are pure hits, still exact.
        hits_before = cache.hits
        assert _mttdls(engine, pairs) == reference
        assert cache.hits - hits_before == len(pairs)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            corrupt_cache_dir(tmp_path, "arson")


class TestKilledWorkers:
    def test_pool_falls_back_to_in_process(self, pairs, reference):
        """Killing every worker at startup must not change a digit: the
        engine recomputes in-process after the pool breaks."""
        with faultpoints.injected(
            faultpoints.POOL_WORKER_START, kill_worker_action()
        ):
            observed = _mttdls(SweepEngine(pairs[0][1], jobs=4), pairs)
        assert observed == reference

    def test_pool_unaffected_without_injection(self, pairs, reference):
        assert _mttdls(SweepEngine(pairs[0][1], jobs=4), pairs) == reference


class TestPoisonedSpecCache:
    def test_poisoned_entries_are_recompiled(self, pairs, reference):
        engine = SweepEngine(pairs[0][1], jobs=1)
        assert _mttdls(engine, pairs) == reference
        poisoned = poison_spec_cache(engine._ctx.specs)
        assert poisoned > 0
        assert _mttdls(engine, pairs) == reference
        # The mismatches were detected, not silently trusted.
        assert engine._ctx.specs.structure_rebuilds == poisoned


class TestFaultDrill:
    def test_full_drill_is_clean(self):
        checked, violations = fault_drill(all_configurations(3), jobs=2)
        assert violations == []
        # 4 corruption modes x 2 passes + killed workers + poisoned specs.
        assert checked == 10
