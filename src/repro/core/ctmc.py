"""Continuous-time Markov chains with absorbing states.

This module implements the modeling machinery the paper takes from
Trivedi's textbook [6]: a continuous-time Markov chain (CTMC) is described
by its infinitesimal generator matrix ``Q`` whose off-diagonal entries are
the transition rates between states and whose diagonal entries make every
row sum to zero.  For reliability analysis the chain has one or more
*absorbing* states (data loss); the mean time to absorption starting from
the fully-operational state is the MTTDL.

Following the paper's appendix, with ``B`` the set of non-absorbing states,
``Q_B`` the generator restricted to ``B``, and ``R = -Q_B`` (the *absorption
matrix*, positive diagonal), the mean time to data loss is::

    MTTDL = <1, 0, ..., 0> . R^{-1} . <1, ..., 1>^t

The engine is deliberately general: the paper's RAID chains, the
hierarchical node chains and the recursive no-internal-RAID chains are all
built on top of it (see :mod:`repro.models`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy import linalg as _sla

from ..obs.tracer import span as _obs_span, tracing_active as _tracing_active

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .solvers import SolveOptions, SolveResult

__all__ = [
    "Transition",
    "CTMC",
    "AbsorptionResult",
    "CTMCError",
    "GeneratorDiagnostics",
    "NotAbsorbingError",
]

State = Hashable


class CTMCError(ValueError):
    """Raised when a chain is structurally invalid for the requested query."""


class NotAbsorbingError(CTMCError):
    """Raised when an absorption query is made on a chain with no absorbing state
    reachable from the initial state."""


@dataclass(frozen=True)
class Transition:
    """A single directed transition of a CTMC.

    Attributes:
        source: state the transition leaves.
        target: state the transition enters.
        rate: exponential rate in 1/time units; must be strictly positive
            (a zero rate is not a transition — drop it at build time).
    """

    source: State
    target: State
    rate: float

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise CTMCError(f"self-loop transition on state {self.source!r}")
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise CTMCError(f"transition rate must be finite and > 0, got {self.rate!r}")


@dataclass(frozen=True)
class AbsorptionResult:
    """Summary statistics of absorption from a fixed initial state.

    Attributes:
        mttdl: mean time to absorption (MTTDL when absorbing = data loss).
        expected_times: mean total time spent in each transient state before
            absorption, keyed by state (the paper's tau_i vector).
        absorption_probabilities: probability of being absorbed into each
            absorbing state, keyed by state.  Sums to 1.
    """

    mttdl: float
    expected_times: Dict[State, float]
    absorption_probabilities: Dict[State, float]


@dataclass(frozen=True)
class GeneratorDiagnostics:
    """Conservation diagnostics of a generator matrix.

    Every mathematically valid generator satisfies three structural laws:
    rows sum to zero (probability conservation), off-diagonal rates are
    non-negative, and absorbing rows are entirely null.  The chain
    constructors enforce these by build order, but spec binding, batch
    stacking and cache round-trips all re-assemble matrices — this report
    is the introspection hook the verification subsystem audits them
    through.

    Attributes:
        num_states: total states.
        num_absorbing: states with zero exit rate.
        max_row_residual: largest ``|sum(row)|`` over all rows — exact
            conservation gives 0.0; float assembly may leave a residual
            of a few ulps of the largest rate.
        min_off_diagonal: smallest off-diagonal entry (negative means an
            invalid rate slipped in; 0.0 is normal).
        absorbing_rows_null: whether every zero-diagonal row is entirely
            zero (an absorbing state must have no outgoing rate at all).
        initial_is_transient: whether the initial state can leave.
    """

    num_states: int
    num_absorbing: int
    max_row_residual: float
    min_off_diagonal: float
    absorbing_rows_null: bool
    initial_is_transient: bool

    def ok(self, atol: float = 1e-9) -> bool:
        """Whether the generator is conservative within ``atol``."""
        return (
            self.max_row_residual <= atol
            and self.min_off_diagonal >= 0.0
            and self.absorbing_rows_null
        )


class CTMC:
    """A finite continuous-time Markov chain.

    States may be arbitrary hashable labels.  The chain is immutable once
    constructed; chain families are declared as
    :class:`~repro.core.spec.ModelSpec` objects and bound per operating
    point.

    Args:
        states: ordering of all states.  The order fixes row/column indices
            of the generator matrix.
        transitions: iterable of :class:`Transition`.  Parallel transitions
            between the same pair of states are summed.
        initial_state: state the chain starts in (defaults to the first).

    Raises:
        CTMCError: on duplicate states, unknown endpoints or invalid rates.
    """

    def __init__(
        self,
        states: Sequence[State],
        transitions: Iterable[Transition],
        initial_state: Optional[State] = None,
    ) -> None:
        states = list(states)
        if len(states) != len(set(states)):
            raise CTMCError("duplicate state labels")
        if not states:
            raise CTMCError("a CTMC needs at least one state")
        self._states: List[State] = states
        self._index: Dict[State, int] = {s: i for i, s in enumerate(states)}
        if initial_state is None:
            initial_state = states[0]
        if initial_state not in self._index:
            raise CTMCError(f"initial state {initial_state!r} not in state list")
        self._initial = initial_state

        n = len(states)
        q = np.zeros((n, n), dtype=float)
        for t in transitions:
            if t.source not in self._index:
                raise CTMCError(f"unknown source state {t.source!r}")
            if t.target not in self._index:
                raise CTMCError(f"unknown target state {t.target!r}")
            q[self._index[t.source], self._index[t.target]] += t.rate
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        self._q = q
        self._q.setflags(write=False)

    @classmethod
    def _from_assembled(
        cls,
        states: List[State],
        index: Dict[State, int],
        q: np.ndarray,
        initial_state: State,
    ) -> "CTMC":
        """Fast construction from a pre-assembled generator matrix.

        Used by :class:`repro.core.spec.CompiledChain` to bind rates onto
        its compiled topology without re-running the per-transition checks
        (the spec validated the structure when it was built).
        ``q`` must already have its diagonal set to the negated row sums;
        ownership of ``q`` transfers to the chain.
        """
        self = cls.__new__(cls)
        self._states = states
        self._index = index
        self._initial = initial_state
        q.setflags(write=False)
        self._q = q
        return self

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> Tuple[State, ...]:
        """All states in index order."""
        return tuple(self._states)

    @property
    def initial_state(self) -> State:
        """The state the chain starts in."""
        return self._initial

    @property
    def num_states(self) -> int:
        """Number of states."""
        return len(self._states)

    def index_of(self, state: State) -> int:
        """Row/column index of ``state`` in the generator matrix."""
        try:
            return self._index[state]
        except KeyError:
            raise CTMCError(f"unknown state {state!r}") from None

    def generator_matrix(self) -> np.ndarray:
        """The infinitesimal generator ``Q`` (a copy; rows sum to zero)."""
        return self._q.copy()

    def rate(self, source: State, target: State) -> float:
        """Transition rate from ``source`` to ``target`` (0 if absent)."""
        if source == target:
            raise CTMCError("rate() is undefined for the diagonal")
        return float(self._q[self.index_of(source), self.index_of(target)])

    def exit_rate(self, state: State) -> float:
        """Total rate out of ``state`` (the negated diagonal entry)."""
        return float(-self._q[self.index_of(state), self.index_of(state)])

    def successors(self, state: State) -> Dict[State, float]:
        """Mapping of reachable next states to their transition rates."""
        i = self.index_of(state)
        row = self._q[i]
        return {
            self._states[j]: float(row[j])
            for j in range(self.num_states)
            if j != i and row[j] > 0.0
        }

    def absorbing_states(self) -> Tuple[State, ...]:
        """States with no outgoing transitions."""
        return tuple(
            s for i, s in enumerate(self._states) if self._q[i, i] == 0.0
        )

    def transient_states(self) -> Tuple[State, ...]:
        """States with at least one outgoing transition."""
        return tuple(
            s for i, s in enumerate(self._states) if self._q[i, i] != 0.0
        )

    # ------------------------------------------------------------------ #
    # absorption analysis (the paper's core computation)
    # ------------------------------------------------------------------ #

    def absorption_matrix(self) -> np.ndarray:
        """The paper's ``R = -Q_B``: the negated generator restricted to
        transient states, in transient-state order."""
        transient = [self.index_of(s) for s in self.transient_states()]
        if not transient:
            raise NotAbsorbingError("chain has no transient states")
        return -self._q[np.ix_(transient, transient)]

    def solve(self, options: Optional["SolveOptions"] = None) -> "SolveResult":
        """Solve this chain through the strategy interface.

        The instance-level door into :func:`repro.core.solvers.solve`:
        builds a single-chain ``"mttdl"`` request and dispatches to the
        backend the options select (``"auto"`` picks dense GTH below the
        state-count crossover, the sparse kernels above it).

        Args:
            options: a :class:`~repro.core.solvers.SolveOptions`;
                defaults apply when omitted.

        Returns:
            The backend's :class:`~repro.core.solvers.SolveResult`;
            ``result.values[0]`` is the MTTDL.
        """
        from .solvers import DEFAULT_SOLVE_OPTIONS, SolveRequest
        from .solvers import solve as _solve

        return _solve(
            SolveRequest(
                chains=(self,),
                query="mttdl",
                options=options if options is not None else DEFAULT_SOLVE_OPTIONS,
            )
        )

    def mean_time_to_absorption(self) -> float:
        """Mean time until the chain first enters any absorbing state.

        This is the MTTDL when the absorbing states model data loss.
        Computed as ``<pi_B(0)> . R^{-1} . 1`` per the appendix.

        Raises:
            NotAbsorbingError: if no absorbing state is reachable from the
                initial state (the expectation would be infinite).
        """
        # Guarded so the hot path pays one bool check when tracing is off.
        if _tracing_active():
            with _obs_span("ctmc.solve", states=len(self.states)):
                return self.absorb().mttdl
        return self.absorb().mttdl

    def absorption_system(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The assembled GTH input system for this chain.

        Returns ``(off_diagonal, absorb_rates, rates_to_absorbing)`` in
        transient-state order: the transient-to-transient off-diagonal rate
        matrix (zero diagonal), the total rate from each transient state to
        the absorbing set, and the per-absorbing-state rate matrix.  This is
        exactly what :meth:`absorb` feeds the GTH solver; the sweep engine
        uses it to stack structurally-identical chains into one batched
        solve with bit-identical assembly.
        """
        transient = list(self.transient_states())
        absorbing = list(self.absorbing_states())
        t_idx = [self.index_of(s) for s in transient]
        a_idx = [self.index_of(s) for s in absorbing]
        # The absorption matrix R = -Q_B is an M-matrix whose condition
        # number explodes as mu/lambda grows (the reliability regime), so
        # we use the subtraction-free GTH elimination: componentwise
        # accurate regardless of stiffness.
        off_diagonal = self._q[np.ix_(t_idx, t_idx)].copy()
        np.fill_diagonal(off_diagonal, 0.0)
        rates_to_absorbing = self._q[np.ix_(t_idx, a_idx)]
        absorb_rates = rates_to_absorbing.sum(axis=1)
        return off_diagonal, absorb_rates, rates_to_absorbing

    @staticmethod
    def stacked_absorption_system(
        chains: Sequence["CTMC"],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`absorption_system` for a batch of structurally identical
        chains, assembled in one pass.

        All chains must share state order and transient/absorbing
        partition (e.g. siblings bound from one
        :class:`~repro.core.spec.CompiledChain`); the caller is
        responsible for grouping.  Each returned slice ``[i]`` holds
        exactly the arrays ``chains[i].absorption_system()`` would — the
        assembly only gathers and sums the same matrix elements, so the
        floats are bitwise identical.
        """
        first = chains[0]
        transient = list(first.transient_states())
        absorbing = list(first.absorbing_states())
        if not transient:
            raise NotAbsorbingError("chain has no transient states")
        t_idx = np.array([first.index_of(s) for s in transient], dtype=np.intp)
        a_idx = np.array([first.index_of(s) for s in absorbing], dtype=np.intp)
        q = np.stack([chain._q for chain in chains])
        off_diagonal = q[:, t_idx[:, None], t_idx[None, :]].copy()
        n = len(transient)
        off_diagonal[:, np.arange(n), np.arange(n)] = 0.0
        rates_to_absorbing = q[:, t_idx[:, None], a_idx[None, :]]
        absorb_rates = rates_to_absorbing.sum(axis=2)
        return off_diagonal, absorb_rates, rates_to_absorbing

    def absorb(self) -> AbsorptionResult:
        """Full absorption analysis from the initial state.

        Routed through the ``dense_gth`` solver backend (the per-state
        tau vector needs the full fundamental matrix, a dense-only
        feature); the floats are the backend's verbatim GTH arithmetic.

        Returns:
            An :class:`AbsorptionResult` with the MTTDL, the expected total
            time spent in each transient state (tau vector), and the
            distribution over absorbing states.
        """
        from .solvers import SolveOptions, SolveRequest
        from .solvers import solve as _solve

        result = _solve(
            SolveRequest(
                chains=(self,),
                query="absorption",
                options=SolveOptions(backend="dense_gth"),
            )
        )
        assert result.absorption is not None
        return result.absorption

    def expected_visits(self) -> Dict[State, float]:
        """Expected number of visits to each transient state before absorption.

        The expected number of visits to state ``i`` equals the expected
        time spent there multiplied by its exit rate.
        """
        result = self.absorb()
        return {
            s: result.expected_times[s] * self.exit_rate(s)
            for s in result.expected_times
        }

    # ------------------------------------------------------------------ #
    # transient analysis
    # ------------------------------------------------------------------ #

    def transient_distribution(self, t: float) -> Dict[State, float]:
        """State distribution at time ``t`` via the matrix exponential.

        Args:
            t: elapsed time (same units as the rates' inverse).

        Returns:
            Mapping of every state to its occupancy probability at ``t``.
        """
        if t < 0:
            raise CTMCError("time must be non-negative")
        pi0 = np.zeros(self.num_states)
        pi0[self.index_of(self._initial)] = 1.0
        pi_t = pi0 @ _sla.expm(self._q * t)
        pi_t = np.clip(pi_t, 0.0, None)
        pi_t = pi_t / pi_t.sum()
        return dict(zip(self._states, map(float, pi_t)))

    def reliability(self, t: float) -> float:
        """Probability of *not* having been absorbed by time ``t``.

        For reliability chains this is the classical reliability function
        ``R(t) = P(no data loss by t)``.
        """
        dist = self.transient_distribution(t)
        absorbing = set(self.absorbing_states())
        return float(sum(p for s, p in dist.items() if s not in absorbing))

    def survival_curve(self, times: Sequence[float]) -> List[float]:
        """Reliability at each time in ``times`` (one expm per distinct time)."""
        return [self.reliability(t) for t in times]

    def uniformized_dtmc(
        self, rate: Optional[float] = None
    ) -> Tuple[np.ndarray, float]:
        """Uniformization: a DTMC transition matrix ``P`` and rate ``Lambda``
        such that the CTMC is the DTMC subordinated to a Poisson(Lambda)
        clock.

        Args:
            rate: uniformization rate; defaults to 1.05x the largest exit
                rate.  Must be >= every exit rate.

        Returns:
            Tuple of the stochastic matrix ``P = I + Q / Lambda`` and the
            chosen ``Lambda``.
        """
        max_exit = float(max(-self._q.diagonal().min(), 0.0))
        if rate is None:
            rate = max_exit * 1.05 if max_exit > 0 else 1.0
        if rate < max_exit:
            raise CTMCError(
                f"uniformization rate {rate} below max exit rate {max_exit}"
            )
        p = np.eye(self.num_states) + self._q / rate
        return p, rate

    def transient_distribution_uniformized(
        self, t: float, tol: float = 1e-12
    ) -> Dict[State, float]:
        """Transient distribution via uniformization (no matrix exponential).

        Numerically robust for stiff chains; truncates the Poisson series
        when the remaining mass is below ``tol``.
        """
        if t < 0:
            raise CTMCError("time must be non-negative")
        p, lam = self.uniformized_dtmc()
        pi = np.zeros(self.num_states)
        pi[self.index_of(self._initial)] = 1.0
        if t == 0 or lam == 0:
            return dict(zip(self._states, map(float, pi)))
        # Poisson(lam*t) weights, computed iteratively in log space for
        # stability.
        mean = lam * t
        result = np.zeros_like(pi)
        log_weight = -mean  # log P(K=0)
        k = 0
        accumulated = 0.0
        vec = pi.copy()
        # Iterate until the tail is negligible; cap to avoid pathological loops.
        max_terms = int(mean + 20 * math.sqrt(mean + 1.0) + 100)
        while k <= max_terms:
            weight = math.exp(log_weight)
            result += weight * vec
            accumulated += weight
            if accumulated >= 1.0 - tol and k >= mean:
                break
            vec = vec @ p
            k += 1
            log_weight += math.log(mean) - math.log(k)
        result = np.clip(result, 0.0, None)
        result /= result.sum()
        return dict(zip(self._states, map(float, result)))

    # ------------------------------------------------------------------ #
    # steady-state analysis (repairable-system view)
    # ------------------------------------------------------------------ #

    def stationary_distribution(self) -> Dict[State, float]:
        """Stationary distribution ``pi`` with ``pi Q = 0``.

        Defined for chains without absorbing states (every state has an
        exit).  Computed with the classical GTH algorithm on the embedded
        structure, so it stays accurate for stiff chains.

        Raises:
            CTMCError: if the chain has absorbing states or is reducible
                in a way that leaves the distribution undefined.
        """
        from .solvers import SolveOptions, SolveRequest
        from .solvers import solve as _solve

        result = _solve(
            SolveRequest(
                chains=(self,),
                query="stationary",
                options=SolveOptions(backend="dense_gth"),
            )
        )
        assert result.distribution is not None
        return result.distribution

    def with_renewal(self, renewal_rate: float) -> "CTMC":
        """A copy where every absorbing state transitions back to the
        initial state at ``renewal_rate``.

        This closes a reliability chain into a repairable-system chain:
        its stationary distribution gives the long-run fraction of time in
        each state (availability analysis), with the absorbing states
        representing post-loss recovery periods of mean ``1/renewal_rate``.
        """
        if renewal_rate <= 0:
            raise CTMCError("renewal rate must be positive")
        transitions = []
        for s in self._states:
            for t, r in self.successors(s).items():
                transitions.append(Transition(s, t, r))
        for s in self.absorbing_states():
            if s == self._initial:
                raise CTMCError("initial state is absorbing; nothing to renew")
            transitions.append(Transition(s, self._initial, renewal_rate))
        return CTMC(self._states, transitions, initial_state=self._initial)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def to_dot(self, name: str = "ctmc", rate_format: str = "{:.3g}") -> str:
        """GraphViz DOT rendering of the chain.

        Absorbing states are drawn as double circles, the initial state is
        bold, and edges carry their rates — handy for documenting the
        paper's figures straight from the code that implements them.
        """
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        absorbing = set(self.absorbing_states())
        for s in self._states:
            attrs = []
            if s in absorbing:
                attrs.append("shape=doublecircle")
            else:
                attrs.append("shape=circle")
            if s == self._initial:
                attrs.append("style=bold")
            lines.append(f'  "{s}" [{", ".join(attrs)}];')
        for s in self._states:
            if s in absorbing:
                continue
            for t, r in self.successors(s).items():
                lines.append(
                    f'  "{s}" -> "{t}" [label="{rate_format.format(r)}"];'
                )
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Human-readable listing of states and transitions."""
        absorbing = set(self.absorbing_states())
        lines = [
            f"CTMC: {self.num_states} states "
            f"({len(absorbing)} absorbing), initial = {self._initial!r}"
        ]
        for s in self._states:
            if s in absorbing:
                lines.append(f"  {s!r}: absorbing")
                continue
            edges = ", ".join(
                f"-> {t!r} @ {r:.4g}" for t, r in sorted(
                    self.successors(s).items(), key=lambda kv: str(kv[0])
                )
            )
            lines.append(f"  {s!r}: {edges}")
        return "\n".join(lines)

    def diagnostics(self) -> GeneratorDiagnostics:
        """Conservation report for this chain's generator matrix.

        Unlike :meth:`validate` (which raises), this returns the measured
        residuals so callers — notably the :mod:`repro.verify` invariant
        registry — can record *how close* the assembled matrix is to a
        mathematically exact generator, whichever construction path
        (spec bind, batch stacking, the legacy oracles) produced it.
        """
        diag = self._q.diagonal()
        absorbing_rows = self._q[diag == 0.0]
        off_diag = self._q - np.diag(diag)
        return GeneratorDiagnostics(
            num_states=self.num_states,
            num_absorbing=int((diag == 0.0).sum()),
            max_row_residual=float(np.abs(self._q.sum(axis=1)).max()),
            min_off_diagonal=float(off_diag.min(initial=0.0)),
            absorbing_rows_null=bool(
                absorbing_rows.size == 0 or not absorbing_rows.any()
            ),
            initial_is_transient=bool(
                diag[self.index_of(self._initial)] != 0.0
            ),
        )

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`CTMCError` on failure."""
        row_sums = self._q.sum(axis=1)
        if not np.allclose(row_sums, 0.0, atol=1e-9):
            raise CTMCError("generator rows do not sum to zero")
        off_diag = self._q - np.diag(self._q.diagonal())
        if np.any(off_diag < 0):
            raise CTMCError("negative off-diagonal rate")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CTMC(states={self.num_states}, "
            f"absorbing={len(self.absorbing_states())}, "
            f"initial={self._initial!r})"
        )
