"""Declarative model IR: symbolic chain specs compiled to bindable kernels.

This module is the front half of the compile--bind--solve pipeline.  A
:class:`ModelSpec` describes a chain *family* once — states plus edges
whose rates are symbolic :class:`RateExpr` trees over named parameters
(``lambda_N``, ``mu_d``, ``h_Nd``, ``k_t``, ...) — and compiling it
yields a :class:`CompiledChain` whose structure is fixed forever and
whose rates are re-evaluated per operating point:

* ``compiled.bind(env)`` assembles one :class:`~repro.core.ctmc.CTMC`
  from a scalar parameter environment, and
* ``compiled.bind_batch(env)`` takes *vector* environments (one array
  entry per lattice point) and assembles the whole stacked generator
  tensor in a single numpy pass, ready for
  :meth:`repro.core.ctmc.CTMC.stacked_absorption_system` and the batched
  GTH solver.

Bit-exactness contract: rate expressions are evaluated with exactly the
IEEE-754 double operations (and operation *order*) their construction
spells out, scalar and vectorized evaluation use the same elementwise
operations, and assembly assigns each edge's rate once into a zero
matrix before deriving the diagonal as ``-row_sum`` — float for float
what the imperative ``legacy_build_*`` oracles + :class:`CTMC` produce.
Because the edge set is fixed at compile time, a rate that evaluates to
zero simply writes an explicit ``0.0`` (the matrix is unchanged); the
topology can never drift with the operating point.

A spec is also *hashable*: :attr:`ModelSpec.spec_hash` digests the
canonical structure (states, edges, expression trees), so caches key
compiled chains by content.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs import Metrics
from .ctmc import CTMC, CTMCError

__all__ = [
    "CompiledChain",
    "CompiledSpecCache",
    "ModelSpec",
    "RateExpr",
    "SpecBuilder",
    "SpecError",
    "const",
    "param",
    "rate_min",
]

State = Hashable
Number = Union[int, float]
EnvValue = Union[int, float, np.ndarray]
Env = Mapping[str, EnvValue]


class SpecError(CTMCError):
    """Raised for structurally invalid specs or incomplete environments."""


# --------------------------------------------------------------------- #
# symbolic rate expressions
# --------------------------------------------------------------------- #

_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "min": np.minimum,
}


class RateExpr:
    """A symbolic rate: an expression tree over named parameters.

    Build expressions with :func:`param` / :func:`const` and ordinary
    arithmetic; the tree records the exact operation order, and
    :meth:`evaluate` replays it with IEEE double operations — so an
    expression transcribed from a figure formula produces the same float
    the inline Python arithmetic would, whether the environment holds
    scalars or whole lattice-axis arrays.

    Example:
        >>> n, lam = param("n"), param("lambda_N")
        >>> expr = n * lam * (1.0 - param("h_N"))
        >>> expr.evaluate({"n": 64, "lambda_N": 2.5e-6, "h_N": 0.0})
        0.00016
    """

    __slots__ = ()

    # -- construction ------------------------------------------------- #

    @staticmethod
    def wrap(value: Union["RateExpr", Number]) -> "RateExpr":
        """Coerce a plain number to a :class:`Const` leaf."""
        if isinstance(value, RateExpr):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"cannot use {value!r} in a rate expression")
        return Const(float(value))

    def __add__(self, other: Union["RateExpr", Number]) -> "RateExpr":
        return BinOp("+", self, RateExpr.wrap(other))

    def __radd__(self, other: Number) -> "RateExpr":
        return BinOp("+", RateExpr.wrap(other), self)

    def __sub__(self, other: Union["RateExpr", Number]) -> "RateExpr":
        return BinOp("-", self, RateExpr.wrap(other))

    def __rsub__(self, other: Number) -> "RateExpr":
        return BinOp("-", RateExpr.wrap(other), self)

    def __mul__(self, other: Union["RateExpr", Number]) -> "RateExpr":
        return BinOp("*", self, RateExpr.wrap(other))

    def __rmul__(self, other: Number) -> "RateExpr":
        return BinOp("*", RateExpr.wrap(other), self)

    def __truediv__(self, other: Union["RateExpr", Number]) -> "RateExpr":
        return BinOp("/", self, RateExpr.wrap(other))

    def __rtruediv__(self, other: Number) -> "RateExpr":
        return BinOp("/", RateExpr.wrap(other), self)

    # -- interface ---------------------------------------------------- #

    def evaluate(self, env: Env):
        """The expression's value under ``env`` (scalars or arrays)."""
        raise NotImplementedError

    def canonical(self) -> str:
        """Stable, fully-parenthesized text form (hashing / display)."""
        raise NotImplementedError

    def params(self) -> frozenset:
        """Names of every parameter the expression reads."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.canonical()})"


@dataclass(frozen=True, repr=False)
class Const(RateExpr):
    """A literal float leaf."""

    value: float

    def evaluate(self, env: Env):
        return self.value

    def canonical(self) -> str:
        return repr(self.value)

    def params(self) -> frozenset:
        return frozenset()


@dataclass(frozen=True, repr=False)
class Param(RateExpr):
    """A named-parameter leaf, looked up in the binding environment."""

    name: str

    def evaluate(self, env: Env):
        try:
            return env[self.name]
        except KeyError:
            raise SpecError(
                f"environment is missing parameter {self.name!r}"
            ) from None

    def canonical(self) -> str:
        return self.name

    def params(self) -> frozenset:
        return frozenset((self.name,))


@dataclass(frozen=True, repr=False)
class BinOp(RateExpr):
    """A binary operation node (``+ - * /`` or elementwise ``min``)."""

    op: str
    left: RateExpr
    right: RateExpr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise SpecError(f"unknown rate operation {self.op!r}")

    def evaluate(self, env: Env):
        return _BINOPS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def canonical(self) -> str:
        a, b = self.left.canonical(), self.right.canonical()
        if self.op == "min":
            return f"min({a},{b})"
        return f"({a}{self.op}{b})"

    def params(self) -> frozenset:
        return self.left.params() | self.right.params()


def param(name: str) -> RateExpr:
    """A named parameter (``lambda_N``, ``mu_d``, ``h_Nd``, ...)."""
    return Param(name)


def const(value: Number) -> RateExpr:
    """A literal constant."""
    return RateExpr.wrap(value)


def rate_min(
    a: Union[RateExpr, Number], b: Union[RateExpr, Number]
) -> RateExpr:
    """Elementwise ``min(a, b)`` — e.g. clamping an h-probability to 1."""
    return BinOp("min", RateExpr.wrap(a), RateExpr.wrap(b))


# --------------------------------------------------------------------- #
# the spec
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ModelSpec:
    """One chain family, declaratively: states + symbolically-rated edges.

    Attributes:
        name: family identifier (``"no_raid_ft2"``, ``"internal_raid_t3"``).
        states: every state, in the order that fixes the generator's
            row/column layout (and therefore the GTH elimination order —
            specs transcribed from the legacy builders must register
            states in the same order to stay bitwise-identical).
        edges: ``(source, target, rate_expr)`` triples; one entry per
            directed edge (parallel rates must be pre-summed, which
            :class:`SpecBuilder` does in insertion order).
        initial_state: the fully-operational start state.
    """

    name: str
    states: Tuple[State, ...]
    edges: Tuple[Tuple[State, State, RateExpr], ...]
    initial_state: State

    def __post_init__(self) -> None:
        if not self.states:
            raise SpecError("a spec needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise SpecError("duplicate state labels in spec")
        known = set(self.states)
        seen_edges = set()
        for src, dst, expr in self.edges:
            if src == dst:
                raise SpecError(f"self-loop edge on {src!r}")
            if src not in known or dst not in known:
                raise SpecError(f"edge {src!r} -> {dst!r} uses unknown states")
            if (src, dst) in seen_edges:
                raise SpecError(
                    f"duplicate edge {src!r} -> {dst!r}; accumulate the "
                    "rates into one expression (SpecBuilder does this)"
                )
            seen_edges.add((src, dst))
            if not isinstance(expr, RateExpr):
                raise SpecError(
                    f"edge {src!r} -> {dst!r} rate must be a RateExpr"
                )
        if self.initial_state not in known:
            raise SpecError(
                f"initial state {self.initial_state!r} not in state list"
            )

    @property
    def param_names(self) -> Tuple[str, ...]:
        """Sorted union of every parameter the edge rates read."""
        names: set = set()
        for _, _, expr in self.edges:
            names |= expr.params()
        return tuple(sorted(names))

    @property
    def spec_hash(self) -> str:
        """Content hash of the canonical structure.

        Two specs share a hash iff they have the same states (order
        included), the same edges and the same rate expression trees —
        the key compiled-chain caches and sweep provenance use.

        The digest is memoized on the instance: every field is an
        immutable tuple, and the serving layer's batcher reads the hash
        on every admitted point, so recomputing the canonical JSON +
        SHA-256 (~20us) per lookup would tax the hot path for nothing.
        """
        cached = self.__dict__.get("_spec_hash_memo")
        if cached is not None:
            return cached
        payload = {
            "name": self.name,
            "states": [repr(s) for s in self.states],
            "edges": [
                [repr(src), repr(dst), expr.canonical()]
                for src, dst, expr in self.edges
            ],
            "initial": repr(self.initial_state),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_spec_hash_memo", digest)
        return digest

    def compile(self) -> "CompiledChain":
        """Lower the spec to a bindable :class:`CompiledChain`."""
        return CompiledChain(self)

    def describe(self) -> str:
        """Human-readable edge listing (documentation / debugging)."""
        lines = [
            f"ModelSpec {self.name!r}: {len(self.states)} states, "
            f"{len(self.edges)} edges, initial = {self.initial_state!r}",
            f"  parameters: {', '.join(self.param_names)}",
        ]
        for src, dst, expr in self.edges:
            lines.append(f"  {src!r} -> {dst!r} @ {expr.canonical()}")
        return "\n".join(lines)


class SpecBuilder:
    """Incremental :class:`ModelSpec` construction.

    States register in insertion order (``add_rate`` registers its
    endpoints, so a spec transcribed line-for-line from a legacy oracle
    reproduces its state order); rates added between the same pair of
    states accumulate into a left-nested sum, matching the oracles'
    ``get() + rate`` order.
    """

    def __init__(self) -> None:
        self._states: List[State] = []
        self._seen: set = set()
        self._rates: Dict[Tuple[State, State], RateExpr] = {}

    def add_state(self, state: State) -> "SpecBuilder":
        """Register ``state``; idempotent."""
        if state not in self._seen:
            self._seen.add(state)
            self._states.append(state)
        return self

    def add_states(self, *states: State) -> "SpecBuilder":
        """Register several states in order."""
        for s in states:
            self.add_state(s)
        return self

    def add_rate(
        self, source: State, target: State, rate: Union[RateExpr, Number]
    ) -> "SpecBuilder":
        """Add a symbolic ``rate`` from ``source`` to ``target``."""
        if source == target:
            raise SpecError(f"self-loop on {source!r}")
        expr = RateExpr.wrap(rate)
        self.add_state(source)
        self.add_state(target)
        key = (source, target)
        existing = self._rates.get(key)
        self._rates[key] = expr if existing is None else existing + expr
        return self

    def build(
        self, name: str, initial_state: Optional[State] = None
    ) -> ModelSpec:
        """The finished spec (initial defaults to the first state)."""
        if initial_state is None:
            if not self._states:
                raise SpecError("a spec needs at least one state")
            initial_state = self._states[0]
        return ModelSpec(
            name=name,
            states=tuple(self._states),
            edges=tuple(
                (src, dst, expr) for (src, dst), expr in self._rates.items()
            ),
            initial_state=initial_state,
        )


# --------------------------------------------------------------------- #
# the compiled form
# --------------------------------------------------------------------- #


class CompiledChain:
    """A spec lowered once: fixed topology + vectorized rate kernel.

    The structure (state order, edge index arrays, initial state) is
    frozen at compile time, so there is nothing to re-verify per bind and
    nothing a vanishing rate can change; :attr:`hits` counts every
    rate-only re-bind the compile paid for.

    Attributes:
        spec: the source :class:`ModelSpec`.
        spec_hash: the spec's content hash (cache / provenance key).
        hits: number of ``bind``/``bind_batch`` point-bindings served by
            this compiled structure.
    """

    __slots__ = (
        "spec",
        "spec_hash",
        "states",
        "edge_keys",
        "initial_state",
        "hits",
        "_exprs",
        "_index",
        "_src_idx",
        "_dst_idx",
        "_n",
        "_states_list",
    )

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        self.spec_hash = spec.spec_hash
        self.states: Tuple[State, ...] = spec.states
        self.edge_keys: Tuple[Tuple[State, State], ...] = tuple(
            (src, dst) for src, dst, _ in spec.edges
        )
        self.initial_state: State = spec.initial_state
        self._exprs: Tuple[RateExpr, ...] = tuple(
            expr for _, _, expr in spec.edges
        )
        self._states_list = list(spec.states)
        self._index: Dict[State, int] = {
            s: i for i, s in enumerate(spec.states)
        }
        self._n = len(spec.states)
        self._src_idx = np.array(
            [self._index[src] for src, _ in self.edge_keys], dtype=np.intp
        )
        self._dst_idx = np.array(
            [self._index[dst] for _, dst in self.edge_keys], dtype=np.intp
        )
        self.hits = 0

    @property
    def num_states(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self.edge_keys)

    # -- rate kernel --------------------------------------------------- #

    def _check_env(self, env: Env) -> None:
        missing = [p for p in self.spec.param_names if p not in env]
        if missing:
            raise SpecError(
                f"environment for {self.spec.name!r} is missing "
                f"parameters: {', '.join(missing)}"
            )

    @staticmethod
    def _num_points(env: Env) -> int:
        length: Optional[int] = None
        for name, value in env.items():
            arr_len = getattr(value, "shape", None)
            if arr_len is None or value.shape == ():  # type: ignore[union-attr]
                continue
            (this,) = value.shape  # type: ignore[union-attr]
            if length is None:
                length = this
            elif length != this:
                raise SpecError(
                    f"environment arrays disagree on length: {name!r} has "
                    f"{this}, expected {length}"
                )
        return 1 if length is None else length

    def rate_tensor(self, env: Env) -> np.ndarray:
        """The ``(points, edges)`` rate tensor for a vector environment.

        Each environment entry is a scalar (broadcast) or a length-``P``
        array; every edge expression is evaluated once, vectorized over
        all points — the single numpy pass that replaces per-point chain
        reconstruction.  Each distinct expression is evaluated exactly
        once per call (edges sharing a rate share the computation).
        """
        self._check_env(env)
        points = self._num_points(env)
        rates = np.empty((points, len(self._exprs)), dtype=float)
        cache: Dict[RateExpr, Any] = {}
        for e, expr in enumerate(self._exprs):
            value = cache.get(expr)
            if value is None:
                value = expr.evaluate(env)
                cache[expr] = value
            rates[:, e] = value
        return rates

    # -- binding ------------------------------------------------------- #

    def bind(self, env: Env) -> CTMC:
        """One chain at a scalar operating point.

        Bitwise identical to building the same chain through the
        imperative oracles: each edge's rate is assigned once into a zero
        matrix and the diagonal derived by the same negated row sum.
        """
        self._check_env(env)
        q = np.zeros((self._n, self._n), dtype=float)
        cache: Dict[RateExpr, Any] = {}
        for e, expr in enumerate(self._exprs):
            value = cache.get(expr)
            if value is None:
                value = expr.evaluate(env)
                cache[expr] = value
            q[self._src_idx[e], self._dst_idx[e]] = value
        np.fill_diagonal(q, -q.sum(axis=1))
        self.hits += 1
        return CTMC._from_assembled(
            self._states_list, self._index, q, self.initial_state
        )

    def bind_sparse(self, env: Env) -> "SparseChain":
        """One chain at a scalar operating point, assembled as CSR.

        The sparse mirror of :meth:`bind`: the edge expressions are
        evaluated identically, but the rates scatter into a
        :class:`~repro.core.sparse.CsrMatrix` built straight from the
        compiled edge index arrays — the dense ``(n, n)`` generator is
        never materialized, so specs whose state spaces exceed the dense
        memory ceiling still bind in ``O(edges)``.  Zero-valued rates
        keep their stored entry (the topology stays fixed across
        operating points, exactly as in the dense binds).
        """
        from .sparse import CsrMatrix, SparseChain

        self._check_env(env)
        rates = self.rate_tensor(env)
        csr = CsrMatrix.from_coo(
            self._src_idx, self._dst_idx, rates[0], (self._n, self._n)
        )
        self.hits += 1
        return SparseChain(
            csr,
            initial_index=self._index[self.initial_state],
            states=self._states_list,
        )

    def bind_batch(self, env: Env) -> List[CTMC]:
        """One chain per lattice point, assembled as a stacked tensor.

        The whole ``(P, n, n)`` generator stack is built in one numpy
        pass (rate tensor, scatter, diagonal) and sliced into chains
        whose matrices are bitwise identical to ``P`` separate
        :meth:`bind` calls — ready for
        :meth:`~repro.core.ctmc.CTMC.stacked_absorption_system` and the
        batched GTH solve.
        """
        rates = self.rate_tensor(env)
        points = rates.shape[0]
        q = np.zeros((points, self._n, self._n), dtype=float)
        q[:, self._src_idx, self._dst_idx] = rates
        diag = np.arange(self._n)
        q[:, diag, diag] = -q.sum(axis=2)
        self.hits += points
        chains = []
        for i in range(points):
            q_i = q[i]
            q_i.setflags(write=False)
            chains.append(
                CTMC._from_assembled(
                    self._states_list, self._index, q_i, self.initial_state
                )
            )
        return chains

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledChain({self.spec.name!r}, states={self._n}, "
            f"edges={len(self.edge_keys)}, hash={self.spec_hash[:12]})"
        )


class CompiledSpecCache:
    """Content-addressed cache of compiled chains, keyed by spec hash.

    The key *is* the structure, so a hit can be trusted after one cheap
    hash comparison — and that comparison is still made on every lookup,
    so a poisoned or stale entry (a compiled chain stored under a hash it
    does not match) is detected and recompiled rather than binding the
    wrong topology.

    Attributes:
        hits / misses: lookup counters.
        structure_rebuilds: recompiles forced by mismatched entries
            (0 in any healthy run).

    All three are read-through properties over the ``core.spec_cache.*``
    counters in :attr:`metrics` (see :mod:`repro.obs`), so every sweep's
    compiled-spec behavior lands in the flat metrics export.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._chains: Dict[str, CompiledChain] = {}
        self.metrics = metrics if metrics is not None else Metrics()
        self._hits = self.metrics.counter("core.spec_cache.hits")
        self._misses = self.metrics.counter("core.spec_cache.misses")
        self._rebuilds = self.metrics.counter(
            "core.spec_cache.structure_rebuilds"
        )

    @property
    def hits(self) -> int:
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.value = value

    @property
    def misses(self) -> int:
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.value = value

    @property
    def structure_rebuilds(self) -> int:
        return self._rebuilds.value

    @structure_rebuilds.setter
    def structure_rebuilds(self, value: int) -> None:
        self._rebuilds.value = value

    def __len__(self) -> int:
        return len(self._chains)

    def get_or_compile(self, spec: ModelSpec) -> CompiledChain:
        """The compiled chain for ``spec``, compiling at most once."""
        key = spec.spec_hash
        entry = self._chains.get(key)
        if entry is not None:
            if entry.spec_hash == key:
                self.hits += 1
                return entry
            # A stored chain that does not match its own key can only be
            # damage (or deliberate poisoning); recompile from the spec.
            self.structure_rebuilds += 1
        else:
            self.misses += 1
        entry = spec.compile()
        self._chains[key] = entry
        return entry

    def hashes(self) -> Tuple[str, ...]:
        """The spec hashes currently cached, sorted (provenance)."""
        return tuple(sorted(self._chains))

    def clear(self) -> None:
        self._chains.clear()
        self.hits = 0
        self.misses = 0
        self.structure_rebuilds = 0
