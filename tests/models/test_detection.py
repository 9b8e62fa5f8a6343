"""Tests for the failure-detection-latency extension."""

import json
from pathlib import Path

import pytest

from repro.models import (
    DetectionLatencyModel,
    InternalRaid,
    InternalRaidNodeModel,
    Parameters,
    build_detection_chain,
)
from repro.models.detection import detection_spec

#: Chains frozen from the imperative ChainBuilder construction that the
#: spec replaced: state order, every generator entry and the MTTDL, as
#: ``float.hex`` strings.  The file is data, not a regeneration target —
#: rebuilding it from the spec path would make the comparison circular.
FROZEN = json.loads(
    (Path(__file__).parents[1] / "data" / "detection_chains.json").read_text()
)["cases"]

RATE_ARGS = (
    "node_failure_rate",
    "array_failure_rate",
    "restripe_sector_loss_rate",
    "node_rebuild_rate",
    "critical_sector_fraction",
    "detection_rate",
)


def _state(label):
    return tuple(label) if isinstance(label, list) else label


def _frozen_view(chain):
    """A chain in the fixture's exact encoding."""
    return (
        list(chain.states),
        chain.initial_state,
        [[x.hex() for x in row] for row in chain.generator_matrix()],
        chain.mean_time_to_absorption().hex(),
    )


def _expected(case):
    return (
        [_state(s) for s in case["states"]],
        _state(case["initial_state"]),
        case["generator"],
        case["mttdl_hours"],
    )


class TestFrozenChains:
    @pytest.mark.parametrize("case", FROZEN, ids=lambda c: c["name"])
    def test_spec_path_is_bitwise_frozen(self, case):
        args = case["args"]
        chain = build_detection_chain(
            args["fault_tolerance"],
            args["n"],
            *(float.fromhex(args[name]) for name in RATE_ARGS),
        )
        assert _frozen_view(chain) == _expected(case)

    @pytest.mark.parametrize(
        "case",
        [c for c in FROZEN if c["source"] != "raw"],
        ids=lambda c: c["name"],
    )
    def test_model_path_is_bitwise_frozen(self, case, baseline):
        model = DetectionLatencyModel(
            baseline,
            InternalRaid[case["source"]["raid"]],
            case["args"]["fault_tolerance"],
            detection_hours=float.fromhex(case["source"]["detection_hours"]),
        )
        assert _frozen_view(model.chain()) == _expected(case)


class TestChain:
    def test_state_count(self):
        # 1 + 2t transient states + loss.
        for t in (1, 2, 3):
            chain = build_detection_chain(t, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
            assert chain.num_states == 2 + 2 * t

    def test_undetected_states_have_no_repair(self):
        chain = build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        successors = chain.successors((1, "u"))
        assert (0, "r") not in successors
        assert successors[(1, "r")] == pytest.approx(10.0)

    def test_repair_edges_only_from_detected(self):
        chain = build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        assert chain.rate((1, "r"), (0, "r")) == pytest.approx(0.3)
        assert chain.rate((2, "r"), (1, "r")) == pytest.approx(0.3)

    def test_spec_is_shared_per_fault_tolerance(self):
        assert detection_spec(2) is detection_spec(2)
        assert detection_spec(2).spec_hash != detection_spec(3).spec_hash

    def test_validation(self):
        with pytest.raises(ValueError):
            build_detection_chain(0, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        with pytest.raises(ValueError):
            detection_spec(0)
        with pytest.raises(ValueError):
            build_detection_chain(2, 2, 1e-6, 0.0, 0.0, 0.3, 1.0, 10.0)
        with pytest.raises(ValueError):
            build_detection_chain(2, 64, 1e-6, 0.0, 0.0, 0.3, 1.0, 0.0)


class TestModel:
    def test_fast_detection_converges_to_paper(self, baseline):
        """With sub-second detection the chain reproduces the paper's
        zero-latency MTTDL."""
        paper = InternalRaidNodeModel(baseline, InternalRaid.RAID5, 2).mttdl_exact()
        fast = DetectionLatencyModel(
            baseline, InternalRaid.RAID5, 2, detection_hours=1e-4
        ).mttdl_exact()
        assert fast == pytest.approx(paper, rel=1e-3)

    def test_latency_monotonically_hurts(self, baseline):
        values = [
            DetectionLatencyModel(
                baseline, InternalRaid.RAID5, 2, detection_hours=h
            ).mttdl_exact()
            for h in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_penalty_definition(self, baseline):
        model = DetectionLatencyModel(
            baseline, InternalRaid.RAID5, 2, detection_hours=1.0
        )
        assert model.mttdl_penalty() >= 1.0

    def test_latency_comparable_to_rebuild_is_costly(self, baseline):
        """A detection window on the order of the rebuild time roughly
        doubles the exposure window, costing ~2-4x at fault tolerance 2."""
        rebuild_hours = 1.0 / InternalRaidNodeModel(
            baseline, InternalRaid.RAID5, 2
        ).node_rebuild_rate
        model = DetectionLatencyModel(
            baseline, InternalRaid.RAID5, 2, detection_hours=rebuild_hours
        )
        assert 1.5 < model.mttdl_penalty() < 6.0

    def test_validation(self, baseline):
        with pytest.raises(ValueError):
            DetectionLatencyModel(baseline, InternalRaid.RAID5, 2, 0.0)
