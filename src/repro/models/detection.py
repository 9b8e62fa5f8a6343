"""Failure-detection latency extension (beyond the paper).

The paper's chains start the rebuild the instant a node fails.  In a
real distributed system there is a detection window — missed heartbeats,
suspicion timeouts, rebuild scheduling — during which the system is
degraded but *nothing is being repaired*.  This module adds that window
to the internal-RAID node-level chain: every degraded level splits into
an *undetected* sub-state (no repair edge, left at rate ``delta`` =
1/detection time) and a *repairing* sub-state (the paper's state).

States: ``(j, "u")`` — j nodes down, latest failure not yet detected;
``(j, "r")`` — j nodes down, rebuild running.  Failures keep arriving in
both; loss still requires ``t + 1`` concurrent failures (or the critical
sector-error term, active in either critical sub-state).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from ..core import CTMC
from ..core.spec import ModelSpec, SpecBuilder, param
from .internal_raid import InternalRaidNodeModel
from .parameters import Parameters
from .raid import InternalRaid
from .specs import compiled

__all__ = [
    "build_detection_chain",
    "detection_env",
    "detection_spec",
    "DetectionLatencyModel",
]

LOSS = "loss"


@lru_cache(maxsize=None)
def detection_spec(fault_tolerance: int) -> ModelSpec:
    """The Figure 5/6/7 chain with a detection stage, as a spec;
    parameters ``n, lambda_N, lambda_D, lambda_S, mu_N, k_t, delta``."""
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    t = fault_tolerance
    n = param("n")
    lam = param("lambda_N") + param("lambda_D")
    b = SpecBuilder().add_state((0, "r"))  # zero-down; tag irrelevant

    # Failure arrivals from every state; detection converts u -> r; repair
    # only from r states.
    for j in range(t + 1):
        if j < t:
            sources = [(j, "r")] if j == 0 else [(j, "u"), (j, "r")]
            for source in sources:
                b.add_rate(source, (j + 1, "u"), (n - j) * lam)
        else:
            # Critical level: one more failure (or critical sector error)
            # loses data, from either sub-state.
            final = lam + param("k_t") * param("lambda_S")
            for tag in ("u", "r"):
                b.add_rate((j, tag), LOSS, (n - j) * final)
        if j >= 1:
            b.add_rate((j, "u"), (j, "r"), param("delta"))
            b.add_rate((j, "r"), (j - 1, "r"), param("mu_N"))
    return b.build(f"detection_t{t}", initial_state=(0, "r"))


def detection_env(
    fault_tolerance: int,
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    restripe_sector_loss_rate: float,
    node_rebuild_rate: float,
    critical_sector_fraction: float,
    detection_rate: float,
) -> Dict[str, float]:
    """Binding environment for :func:`detection_spec`."""
    if fault_tolerance < 1:
        raise ValueError("fault_tolerance must be >= 1")
    if n <= fault_tolerance:
        raise ValueError("node set must be larger than the fault tolerance")
    if detection_rate <= 0:
        raise ValueError("detection rate must be positive")
    return {
        "n": n,
        "lambda_N": node_failure_rate,
        "lambda_D": array_failure_rate,
        "lambda_S": restripe_sector_loss_rate,
        "mu_N": node_rebuild_rate,
        "k_t": critical_sector_fraction,
        "delta": detection_rate,
    }


def build_detection_chain(
    fault_tolerance: int,
    n: int,
    node_failure_rate: float,
    array_failure_rate: float,
    restripe_sector_loss_rate: float,
    node_rebuild_rate: float,
    critical_sector_fraction: float,
    detection_rate: float,
) -> CTMC:
    """The Figure 5/6/7 chain with an explicit detection stage.

    Args:
        detection_rate: ``delta`` = 1 / mean detection latency (per hour).
            As ``delta -> inf`` the chain converges to the paper's.

    Other arguments as in
    :func:`repro.models.internal_raid.build_internal_raid_chain`.
    """
    env = detection_env(
        fault_tolerance,
        n,
        node_failure_rate,
        array_failure_rate,
        restripe_sector_loss_rate,
        node_rebuild_rate,
        critical_sector_fraction,
        detection_rate,
    )
    return compiled(detection_spec(fault_tolerance)).bind(env)


class DetectionLatencyModel:
    """Internal-RAID reliability with non-zero failure-detection latency.

    Args:
        params: system parameters.
        raid_level: internal RAID 5 or 6.
        fault_tolerance: cross-node tolerance.
        detection_hours: mean time from failure to rebuild start.
    """

    def __init__(
        self,
        params: Parameters,
        raid_level: InternalRaid,
        fault_tolerance: int,
        detection_hours: float,
    ) -> None:
        if detection_hours <= 0:
            raise ValueError("detection_hours must be positive")
        self._inner = InternalRaidNodeModel(params, raid_level, fault_tolerance)
        self._params = params
        self._t = fault_tolerance
        self._detection_rate = 1.0 / detection_hours

    @property
    def detection_hours(self) -> float:
        return 1.0 / self._detection_rate

    def chain(self) -> CTMC:
        rates = self._inner.array_rates
        return build_detection_chain(
            self._t,
            self._params.node_set_size,
            self._params.node_failure_rate,
            rates.array_failure_rate,
            rates.restripe_sector_loss_rate,
            self._inner.node_rebuild_rate,
            self._inner.critical_sector_fraction,
            self._detection_rate,
        )

    def mttdl_exact(self) -> float:
        """MTTDL in hours."""
        return self.chain().mean_time_to_absorption()

    def mttdl_penalty(self) -> float:
        """Ratio of the zero-latency (paper) MTTDL to this model's —
        how much the detection window costs."""
        return self._inner.mttdl_exact() / self.mttdl_exact()
