"""Markov models for nodes *without* internal RAID (Figures 8, 9, 10).

Without internal RAID, individual drives participate directly in the
cross-node erasure code (at most one drive of a node per redundancy set),
so a drive failure and a node failure are *distinct* degraded states with
different repair rates (``mu_d`` vs ``mu_N``).  The state space therefore
doubles with each additional tolerated failure.

The chains are declared once in :mod:`repro.models.specs` (states plus
symbolic rates over the paper's parameters) and bound here per operating
point; the original hand-transcribed builders are kept as
``legacy_build_no_raid_chain_ft*`` oracles, and the test suite asserts
bitwise generator equality between the two paths.  The appendix's
recursive construction (:mod:`repro.models.recursive`) must also produce
exactly these chains — the suite checks that for k = 1, 2, 3.

State labels are failure words: ``"0"*k`` is fully operational; a word
like ``"Nd0"`` means a node failure followed by a drive failure, one more
failure tolerated.  Hard-error splits ride the transitions into the
*innermost* (critical) states, weighted by the ``h_alpha`` probabilities
of Section 5.2.2.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import CTMC
from ..core.builder import ChainBuilder
from ..core.spec import ModelSpec
from .critical_sets import h_parameters
from .parameters import Parameters
from .rebuild import RebuildModel
from .specs import compiled, no_raid_env, no_raid_spec

__all__ = [
    "build_no_raid_chain_ft1",
    "build_no_raid_chain_ft2",
    "build_no_raid_chain_ft3",
    "NoRaidNodeModel",
]

LOSS = "loss"


def build_no_raid_chain_ft1(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h_n: float,
    h_d: float,
) -> CTMC:
    """Figure 8: fault tolerance 1, no internal RAID.

    Args:
        n: node set size.
        d: drives per node.
        node_failure_rate: lambda_N.
        drive_failure_rate: lambda_d.
        node_rebuild_rate: mu_N.
        drive_rebuild_rate: mu_d.
        h_n: probability of a hard error during a node rebuild,
            ``d (R-1) C HER``.
        h_d: probability of a hard error during a drive rebuild,
            ``(R-1) C HER``.
    """
    env = no_raid_env(
        1,
        n,
        d,
        node_failure_rate,
        drive_failure_rate,
        node_rebuild_rate,
        drive_rebuild_rate,
        {"N": h_n, "d": h_d},
    )
    return compiled(no_raid_spec(1)).bind(env)


def build_no_raid_chain_ft2(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Dict[str, float],
) -> CTMC:
    """Figure 9: fault tolerance 2, no internal RAID.

    ``h`` maps the four failure words {"NN", "Nd", "dN", "dd"} to the
    probabilities of a hard error during the second rebuild (Section
    5.2.2).
    """
    env = no_raid_env(
        2,
        n,
        d,
        node_failure_rate,
        drive_failure_rate,
        node_rebuild_rate,
        drive_rebuild_rate,
        h,
    )
    return compiled(no_raid_spec(2)).bind(env)


def build_no_raid_chain_ft3(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Dict[str, float],
) -> CTMC:
    """Figure 10: fault tolerance 3, no internal RAID.

    ``h`` maps the eight failure words of length 3 over {N, d} to hard-
    error probabilities during the third rebuild.
    """
    env = no_raid_env(
        3,
        n,
        d,
        node_failure_rate,
        drive_failure_rate,
        node_rebuild_rate,
        drive_rebuild_rate,
        h,
    )
    return compiled(no_raid_spec(3)).bind(env)


# --------------------------------------------------------------------- #
# legacy hand-transcribed builders (oracles for spec equivalence tests)
# --------------------------------------------------------------------- #


def legacy_build_no_raid_chain_ft1(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h_n: float,
    h_d: float,
) -> CTMC:
    """The original imperative Figure 8 construction (equivalence oracle)."""
    _check(n, d, 1)
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    h_n, h_d = _clamp(h_n), _clamp(h_d)
    b = ChainBuilder().add_states("0", "N", "d", LOSS)
    b.add_rate("0", "N", n * lam_n * (1.0 - h_n))
    b.add_rate("0", "d", n * d * lam_d * (1.0 - h_d))
    b.add_rate("0", LOSS, n * (lam_n * h_n + d * lam_d * h_d))
    b.add_rate("N", "0", node_rebuild_rate)
    b.add_rate("d", "0", drive_rebuild_rate)
    second = (n - 1) * (lam_n + d * lam_d)
    b.add_rate("N", LOSS, second)
    b.add_rate("d", LOSS, second)
    return b.build(initial_state="0")


def legacy_build_no_raid_chain_ft2(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Dict[str, float],
) -> CTMC:
    """The original imperative Figure 9 construction (equivalence oracle)."""
    _check(n, d, 2)
    _check_words(h, 2)
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    b = ChainBuilder().add_states("00", "N0", "d0", "NN", "Nd", "dN", "dd", LOSS)

    b.add_rate("00", "N0", n * lam_n)
    b.add_rate("00", "d0", n * d * lam_d)
    b.add_rate("N0", "00", mu_n)
    b.add_rate("d0", "00", mu_d)

    for first, _mu_back in (("N", mu_n), ("d", mu_d)):
        root = first + "0"
        h_to_n = _clamp(h[first + "N"])
        h_to_d = _clamp(h[first + "d"])
        b.add_rate(root, first + "N", (n - 1) * lam_n * (1.0 - h_to_n))
        b.add_rate(root, first + "d", (n - 1) * d * lam_d * (1.0 - h_to_d))
        b.add_rate(root, LOSS, (n - 1) * (lam_n * h_to_n + d * lam_d * h_to_d))
        b.add_rate(first + "N", root, mu_n)
        b.add_rate(first + "d", root, mu_d)

    third = (n - 2) * (lam_n + d * lam_d)
    for leaf in ("NN", "Nd", "dN", "dd"):
        b.add_rate(leaf, LOSS, third)
    return b.build(initial_state="00")


def legacy_build_no_raid_chain_ft3(
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Dict[str, float],
) -> CTMC:
    """The original imperative Figure 10 construction (equivalence oracle)."""
    _check(n, d, 3)
    _check_words(h, 3)
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    mu = {"N": mu_n, "d": mu_d}
    b = ChainBuilder().add_state("000")

    b.add_rate("000", "N00", n * lam_n)
    b.add_rate("000", "d00", n * d * lam_d)
    b.add_rate("N00", "000", mu_n)
    b.add_rate("d00", "000", mu_d)

    for first in "Nd":
        for second in "Nd":
            state = first + second + "0"
            b.add_rate(first + "00", state, (n - 1) * (lam_n if second == "N" else d * lam_d))
            b.add_rate(state, first + "00", mu[second])

    for prefix in ("NN", "Nd", "dN", "dd"):
        root = prefix + "0"
        h_to_n = _clamp(h[prefix + "N"])
        h_to_d = _clamp(h[prefix + "d"])
        b.add_rate(root, prefix + "N", (n - 2) * lam_n * (1.0 - h_to_n))
        b.add_rate(root, prefix + "d", (n - 2) * d * lam_d * (1.0 - h_to_d))
        b.add_rate(root, LOSS, (n - 2) * (lam_n * h_to_n + d * lam_d * h_to_d))
        b.add_rate(prefix + "N", root, mu_n)
        b.add_rate(prefix + "d", root, mu_d)

    fourth = (n - 3) * (lam_n + d * lam_d)
    for first in "Nd":
        for second in "Nd":
            for third_letter in "Nd":
                b.add_rate(first + second + third_letter, LOSS, fourth)
    return b.build(initial_state="000")


class NoRaidNodeModel:
    """MTTDL model for [no internal RAID x node fault tolerance t], t <= 3.

    For arbitrary ``t`` use :class:`repro.models.recursive.RecursiveNoRaidModel`;
    this class transcribes the figures directly and is the ground truth the
    recursion is tested against.
    """

    def __init__(
        self,
        params: Parameters,
        fault_tolerance: int,
        rebuild: Optional[RebuildModel] = None,
    ) -> None:
        if fault_tolerance not in (1, 2, 3):
            raise ValueError(
                "explicit chains exist for fault tolerance 1-3 only; use "
                "RecursiveNoRaidModel for higher tolerance"
            )
        self._params = params
        self._t = fault_tolerance
        self._rebuild = rebuild if rebuild is not None else RebuildModel(params)

    @property
    def params(self) -> Parameters:
        return self._params

    @property
    def fault_tolerance(self) -> int:
        return self._t

    @property
    def node_rebuild_rate(self) -> float:
        return self._rebuild.node_rebuild_rate(self._t)

    @property
    def drive_rebuild_rate(self) -> float:
        return self._rebuild.drive_rebuild_rate(self._t)

    def hard_error_parameters(self) -> Dict[str, float]:
        """The ``h_alpha`` probabilities for this configuration."""
        return h_parameters(self._params, self._t)

    def spec(self) -> ModelSpec:
        """The declarative form of the Figure 8/9/10 chain."""
        return no_raid_spec(self._t)

    def chain_env(self) -> Dict[str, float]:
        """The binding environment for :meth:`spec` at this operating point."""
        p = self._params
        return no_raid_env(
            self._t,
            p.node_set_size,
            p.drives_per_node,
            p.node_failure_rate,
            p.drive_failure_rate,
            self.node_rebuild_rate,
            self.drive_rebuild_rate,
            self.hard_error_parameters(),
        )

    def chain(self) -> CTMC:
        """The Figure 8/9/10 chain, bound through the compiled spec."""
        return compiled(self.spec()).bind(self.chain_env())

    def legacy_chain(self) -> CTMC:
        """The same chain through the original imperative builder — the
        oracle the spec path is checked against (bitwise)."""
        p = self._params
        h = self.hard_error_parameters()
        args = (
            p.node_set_size,
            p.drives_per_node,
            p.node_failure_rate,
            p.drive_failure_rate,
            self.node_rebuild_rate,
            self.drive_rebuild_rate,
        )
        if self._t == 1:
            return legacy_build_no_raid_chain_ft1(*args, h["N"], h["d"])
        if self._t == 2:
            return legacy_build_no_raid_chain_ft2(*args, h)
        return legacy_build_no_raid_chain_ft3(*args, h)

    def mttdl_exact(self) -> float:
        """MTTDL in hours from the numeric CTMC solve."""
        return self.chain().mean_time_to_absorption()


def _check(n: int, d: int, t: int) -> None:
    if n <= t:
        raise ValueError("node set must be larger than the fault tolerance")
    if d < 1:
        raise ValueError("need at least one drive per node")


def _check_words(h: Dict[str, float], k: int) -> None:
    expected = 2**k
    if len(h) < expected:
        raise ValueError(f"need all {expected} h-parameters for fault tolerance {k}")


def _clamp(h: float) -> float:
    if h < 0:
        raise ValueError(f"hard error probability must be >= 0, got {h}")
    return min(h, 1.0)
