"""Recursive construction of no-internal-RAID chains (paper appendix).

The appendix observes that the fault-tolerance-``k`` chain contains two
copies of the fault-tolerance-``k-1`` chain (one entered by a node
failure, one by a drive failure) plus a new root, giving ``2^(k+1) - 1``
non-absorbing states.  This module implements:

* :func:`build_recursive_chain` — the literal recursive construction
  (merge the absorbing states, prefix the labels, decrement N, prefix the
  h-subscripts, wire the new root);
* :class:`RecursiveNoRaidModel` — the user-facing model for arbitrary
  fault tolerance, exact (numeric solve) and approximate (Figure A1);
* :func:`l_value` / :func:`l_k` — the appendix's ``L`` and ``L_k``
  recursions; and
* :func:`mttdl_general_approx` — Figure A1's closed form

  .. math::

     MTTDL \\approx \\frac{(\\mu_N \\mu_d)^k}
       {N (N-1) \\cdots (N-k+1)\\bigl((N-k)(\\lambda_N + d \\lambda_d)
        L(\\mu_d, \\mu_N)^k + \\mu_N \\mu_d L_k(h^{(k)})\\bigr)}
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from ..core import CTMC
from ..core.builder import ChainBuilder
from ..core.spec import ModelSpec
from .critical_sets import h_parameters
from .parameters import Parameters
from .rebuild import RebuildModel
from .specs import compiled, recursive_env, recursive_spec

__all__ = [
    "build_recursive_chain",
    "RecursiveNoRaidModel",
    "l_value",
    "l_k",
    "mttdl_general_approx",
]

LOSS = "loss"


def _build_level(
    builder: ChainBuilder,
    prefix: str,
    k: int,
    remaining: int,
    n_eff: int,
    d: int,
    lam_n: float,
    lam_d: float,
    mu_n: float,
    mu_d: float,
    h: Mapping[str, float],
    n_total: int,
) -> None:
    """Recursively add the sub-chain rooted at ``prefix + "0" * remaining``.

    Args:
        prefix: failure word so far (letters over {N, d}).
        k: total fault tolerance of the whole chain.
        remaining: how many more failures are tolerated below this root.
        n_eff: effective node count at this level (N minus failures so far).
        n_total: the original N (for the absorbing rates ``(N-k)(...)``).
    """
    root = prefix + "0" * remaining
    if remaining == 0:
        # Innermost: a (k+1)-th failure anywhere loses data.
        builder.add_rate(root, LOSS, (n_total - k) * (lam_n + d * lam_d))
        return

    mu = {"N": mu_n, "d": mu_d}
    for letter, rate in (("N", lam_n), ("d", d * lam_d)):
        child_prefix = prefix + letter
        child = child_prefix + "0" * (remaining - 1)
        if remaining == 1:
            # Transition into a critical state: the h-split applies.
            h_split = min(max(h[child_prefix], 0.0), 1.0)
            builder.add_rate(root, child, n_eff * rate * (1.0 - h_split))
            builder.add_rate(root, LOSS, n_eff * rate * h_split)
        else:
            builder.add_rate(root, child, n_eff * rate)
        builder.add_rate(child, root, mu[letter])
        _build_level(
            builder,
            child_prefix,
            k,
            remaining - 1,
            n_eff - 1,
            d,
            lam_n,
            lam_d,
            mu_n,
            mu_d,
            h,
            n_total,
        )


def build_recursive_chain(
    fault_tolerance: int,
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Mapping[str, float],
) -> CTMC:
    """The appendix's no-internal-RAID chain for arbitrary fault tolerance.

    Produces ``2^(k+1) - 1`` non-absorbing states labeled by failure words
    (prefix of letters over {N, d} padded with "0"s) plus one absorbing
    ``"loss"`` state.  For k = 1, 2, 3 the result is generator-identical
    to the hand-transcribed Figures 8-10.

    Args:
        fault_tolerance: k >= 1.
        n: node set size (must exceed k).
        d: drives per node.
        node_failure_rate: lambda_N.
        drive_failure_rate: lambda_d.
        node_rebuild_rate: mu_N.
        drive_rebuild_rate: mu_d.
        h: mapping from every failure word of length k to its hard-error
            probability (see :func:`repro.models.critical_sets.h_parameters`).
    """
    env = recursive_env(
        fault_tolerance,
        n,
        d,
        node_failure_rate,
        drive_failure_rate,
        node_rebuild_rate,
        drive_rebuild_rate,
        h,
    )
    return compiled(recursive_spec(fault_tolerance)).bind(env)


def legacy_build_recursive_chain(
    fault_tolerance: int,
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Mapping[str, float],
) -> CTMC:
    """The original imperative appendix construction (equivalence oracle)."""
    k = fault_tolerance
    if k < 1:
        raise ValueError("fault_tolerance must be >= 1")
    if n <= k:
        raise ValueError("node set must be larger than the fault tolerance")
    if d < 1:
        raise ValueError("need at least one drive per node")
    missing = [w for w in _words(k) if w not in h]
    if missing:
        raise ValueError(f"missing h-parameters for words: {missing[:4]}...")

    builder = ChainBuilder().add_state("0" * k)
    _build_level(
        builder,
        prefix="",
        k=k,
        remaining=k,
        n_eff=n,
        d=d,
        lam_n=node_failure_rate,
        lam_d=drive_failure_rate,
        mu_n=node_rebuild_rate,
        mu_d=drive_rebuild_rate,
        h=h,
        n_total=n,
    )
    return builder.build(initial_state="0" * k)


# --------------------------------------------------------------------- #
# the appendix's L / L_k recursion and Figure A1 closed form
# --------------------------------------------------------------------- #


def l_value(x: float, y: float, node_failure_rate: float, drive_failure_rate: float, d: int) -> float:
    """``L(x, y) = x lambda_N + y d lambda_d``."""
    return x * node_failure_rate + y * d * drive_failure_rate


def l_k(
    h_ordered: Sequence[float],
    node_failure_rate: float,
    drive_failure_rate: float,
    d: int,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
) -> float:
    """The appendix's ``L_k`` recursion on an ordered h-set of size ``2^k``.

    ``L_1(H) = L(H_1, H_2)``; for k > 1 split H into halves (N-prefixed
    first, d-prefixed second) and
    ``L_k(H) = L(mu_d L_{k-1}(H_N), mu_N L_{k-1}(H_d))``.
    """
    size = len(h_ordered)
    if size < 2 or size & (size - 1):
        raise ValueError("h-set size must be a power of two, >= 2")
    if size == 2:
        return l_value(
            h_ordered[0], h_ordered[1], node_failure_rate, drive_failure_rate, d
        )
    half = size // 2
    first = l_k(
        h_ordered[:half],
        node_failure_rate,
        drive_failure_rate,
        d,
        node_rebuild_rate,
        drive_rebuild_rate,
    )
    second = l_k(
        h_ordered[half:],
        node_failure_rate,
        drive_failure_rate,
        d,
        node_rebuild_rate,
        drive_rebuild_rate,
    )
    return l_value(
        drive_rebuild_rate * first,
        node_rebuild_rate * second,
        node_failure_rate,
        drive_failure_rate,
        d,
    )


def mttdl_general_approx(
    fault_tolerance: int,
    n: int,
    d: int,
    node_failure_rate: float,
    drive_failure_rate: float,
    node_rebuild_rate: float,
    drive_rebuild_rate: float,
    h: Mapping[str, float],
) -> float:
    """Figure A1's general closed-form MTTDL approximation.

    Valid when ``N (lambda_N + d lambda_d)`` is at least an order of
    magnitude below both rebuild rates (the appendix theorem's hypothesis).
    """
    k = fault_tolerance
    if k < 1:
        raise ValueError("fault_tolerance must be >= 1")
    if n <= k:
        raise ValueError("node set must be larger than the fault tolerance")
    lam_n, lam_d = node_failure_rate, drive_failure_rate
    mu_n, mu_d = node_rebuild_rate, drive_rebuild_rate
    h_ordered = [h[w] for w in _words(k)]
    l_mu = l_value(mu_d, mu_n, lam_n, lam_d, d)
    lk = (
        l_k(h_ordered, lam_n, lam_d, d, mu_n, mu_d)
        if k > 1
        else l_value(h_ordered[0], h_ordered[1], lam_n, lam_d, d)
    )
    falling = 1.0
    for j in range(k):
        falling *= n - j
    denominator = falling * (
        (n - k) * (lam_n + d * lam_d) * l_mu**k + (mu_n * mu_d) * lk
    )
    return (mu_n * mu_d) ** k / denominator


def _words(k: int) -> List[str]:
    """All length-k failure words in the appendix's order (N before d)."""
    words = [""]
    for _ in range(k):
        words = [w + letter for w in words for letter in "Nd"]
    # Build in prefix-major order: ["NN", "Nd", "dN", "dd"] for k = 2.
    return sorted(words, key=lambda w: [0 if c == "N" else 1 for c in w])


class RecursiveNoRaidModel:
    """No-internal-RAID model for arbitrary cross-node fault tolerance.

    Args:
        params: system parameters.
        fault_tolerance: k >= 1 (the chain has ``2^(k+1) - 1`` states, so
            stay modest; k = 10 is ~2000 states and solves in milliseconds).
        rebuild: optional shared rebuild model.
    """

    def __init__(
        self,
        params: Parameters,
        fault_tolerance: int,
        rebuild: Optional[RebuildModel] = None,
    ) -> None:
        if fault_tolerance < 1:
            raise ValueError("fault_tolerance must be >= 1")
        if params.node_set_size <= fault_tolerance:
            raise ValueError("node set must be larger than the fault tolerance")
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
        """All ``2^k`` h-parameters (Section 5.2.2 generalized)."""
        return h_parameters(self._params, self._t)

    def spec(self) -> ModelSpec:
        """The declarative form of the appendix chain."""
        return recursive_spec(self._t)

    def chain_env(self) -> Dict[str, float]:
        """The binding environment for :meth:`spec` at this operating point."""
        p = self._params
        return recursive_env(
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
        """The recursively-constructed CTMC, bound through the compiled
        spec."""
        return compiled(self.spec()).bind(self.chain_env())

    def legacy_chain(self) -> CTMC:
        """The same chain through the original recursive builder — the
        oracle the spec path is checked against (bitwise)."""
        p = self._params
        return legacy_build_recursive_chain(
            self._t,
            p.node_set_size,
            p.drives_per_node,
            p.node_failure_rate,
            p.drive_failure_rate,
            self.node_rebuild_rate,
            self.drive_rebuild_rate,
            self.hard_error_parameters(),
        )

    def mttdl_exact(self) -> float:
        """MTTDL in hours from the numeric CTMC solve."""
        return self.chain().mean_time_to_absorption()

    def mttdl_approx(self) -> float:
        """Figure A1's closed-form approximation."""
        p = self._params
        return mttdl_general_approx(
            self._t,
            p.node_set_size,
            p.drives_per_node,
            p.node_failure_rate,
            p.drive_failure_rate,
            self.node_rebuild_rate,
            self.drive_rebuild_rate,
            self.hard_error_parameters(),
        )
