"""Aggregate functions and the partial-aggregate-object (PAO) API.

EAGr treats the aggregate function ``F`` as a black box implementing the
standard user-defined-aggregate API (paper Section 2.2.3):

* ``INITIALIZE`` — create an empty PAO (:meth:`AggregateFunction.identity`),
* ``UPDATE`` — incorporate the change of one input from an old PAO to a new
  one (realized here through the delta / fast-update protocols below),
* ``FINALIZE`` — produce the user-facing answer from a PAO,
* ``MERGE`` — combine two PAOs (required by EAGr to share partial
  aggregates across overlay nodes; optional in most UDA APIs).

Two optional properties drive overlay optimizations (Section 3.1):

* ``duplicate_insensitive`` (MAX, MIN, set-UNIQUE): the overlay may contain
  multiple writer→reader paths (:class:`~repro.overlay.vnm` ``VNM_D``);
* ``subtractable`` (SUM, COUNT, AVG, TOP-K): a PAO's contribution can be
  removed efficiently, enabling *negative edges* (``VNM_N``) and O(1)
  sliding-window eviction.

Implementation note — incremental execution families
-----------------------------------------------------
The execution engine (:mod:`repro.core.execution`) uses two propagation
strategies, chosen by ``subtractable``:

* **group aggregates** (subtractable): updates travel through the overlay as
  small *delta* PAOs (e.g. ``+3.0`` for SUM, ``{"x": +1, "y": -1}`` for
  TOP-K).  Applying a delta costs O(|delta|) regardless of fan-in, which is
  the paper's ``H(k) ∝ 1`` regime.
* **lattice aggregates** (MAX/MIN/set-UNIQUE): no deltas exist; updates
  travel as ``(old, new)`` value pairs and each push node keeps its inputs'
  last values, using :meth:`AggregateFunction.fast_update` when possible and
  recomputing otherwise (the paper's priority-queue ``H(k) ∝ log k``
  treatment, realized here as amortized fast-path + occasional O(k) rebuild).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Sentinel returned by :meth:`AggregateFunction.fast_update` when an O(1)
#: update is impossible and the caller must recompute from all inputs.
NEED_RECOMPUTE = object()

PAO = Any
Raw = Any


class AggregateError(Exception):
    """Raised on misuse of the aggregate API (e.g. subtracting a MAX)."""


# -- column pack/unpack kernels ---------------------------------------------
# Module-level named functions (not lambdas) so ColumnSpec instances — and
# everything holding one, e.g. a ColumnarStore travelling to a shard worker
# process — survive pickling.


def _pack_identity(pao: PAO) -> Tuple[Any, ...]:
    return (pao,)


def _unpack_identity(cols: Tuple[Any, ...]) -> PAO:
    return cols[0]


def _pack_float(pao: PAO) -> Tuple[float]:
    return (float(pao),)


def _unpack_float(cols: Tuple[Any, ...]) -> float:
    return float(cols[0])


def _pack_int(pao: PAO) -> Tuple[int]:
    return (int(pao),)


def _unpack_int(cols: Tuple[Any, ...]) -> int:
    return int(cols[0])


def _pack_float_int(pao: PAO) -> Tuple[float, int]:
    return (float(pao[0]), int(pao[1]))


def _unpack_float_int(cols: Tuple[Any, ...]) -> Tuple[float, int]:
    return (float(cols[0]), int(cols[1]))


def _pack_optional_float(pao: PAO) -> Tuple[float]:
    return (float("nan") if pao is None else float(pao),)


def _unpack_optional_float(cols: Tuple[Any, ...]) -> Optional[float]:
    # nan != nan encodes the lattice identity (empty window) as None.
    return None if cols[0] != cols[0] else float(cols[0])


@dataclass(frozen=True)
class ColumnSpec:
    """Declarative columnar layout of a PAO for the columnar value store.

    An aggregate that publishes a ``column_spec`` states that its PAOs are
    (tuples of) machine scalars, so the state layer may keep them in dense
    numpy arrays — one column per field — and the batched execution kernels
    may apply whole batches with ``np.add.at`` scatters and vectorized
    segment reductions instead of per-PAO Python calls.

    Fields
    ------
    dtypes / fills:
        Per-column numpy dtype name and identity fill value.  A freshly
        allocated column holds the aggregate's identity in every slot
        (``nan`` encodes the lattice identity ``None``).
    kind:
        ``"delta"`` — PAOs form a group under ``+`` (merge is columnwise
        addition, subtract is columnwise subtraction); propagation can be
        coalesced into signed additive scatters.  ``"lattice"`` — merge is
        an extremum ufunc; no subtraction exists.
    merge_ufunc:
        Name of the numpy ufunc realizing columnwise merge (``"add"``,
        ``"maximum"``, ``"minimum"``).  For ``delta`` specs the subtract
        kernel is derived by negating the operand.
    sources:
        ``delta`` only: what each column accumulates per raw stream value —
        ``"value"`` (``float(raw)``, as :meth:`AggregateFunction.lift`
        would) or ``"count"`` (``1`` per raw).  This is what lets a batched
        writer step fold a whole added/evicted run into per-column deltas
        without constructing intermediate PAOs.
    scalar_raws:
        True when every raw stream value this aggregate accepts is itself a
        number, so per-writer window buffers may store raws in numpy ring
        buffers (COUNT accepts arbitrary payloads and must keep object
        buffers).
    pack / unpack:
        Convert one PAO to/from its tuple of column scalars.  ``unpack``
        must return genuine Python scalars so reads are byte-identical to
        the object backend.
    """

    dtypes: Tuple[str, ...]
    fills: Tuple[Any, ...]
    kind: str  # "delta" | "lattice"
    merge_ufunc: str  # "add" | "maximum" | "minimum"
    sources: Optional[Tuple[str, ...]] = None
    scalar_raws: bool = True
    pack: Callable[[PAO], Tuple[Any, ...]] = _pack_identity
    unpack: Callable[[Tuple[Any, ...]], PAO] = _unpack_identity

    def __post_init__(self) -> None:
        if self.kind not in ("delta", "lattice"):
            raise ValueError("column spec kind must be 'delta' or 'lattice'")
        if len(self.dtypes) != len(self.fills):
            raise ValueError("dtypes and fills must align")
        if self.kind == "delta":
            if self.sources is None or len(self.sources) != len(self.dtypes):
                raise ValueError("delta specs must give one source per column")
            if any(source not in ("value", "count") for source in self.sources):
                raise ValueError("column sources must be 'value' or 'count'")


class AggregateFunction(ABC):
    """Base class for EAGr aggregate functions.

    Subclasses must provide :meth:`identity`, :meth:`lift`, :meth:`merge`
    and :meth:`finalize`; ``subtractable`` subclasses must also provide
    :meth:`subtract`.  PAOs are treated as immutable values by the engine —
    ``merge``/``subtract`` must not mutate their arguments.
    """

    #: Human-readable name, also the registry key.
    name: str = "abstract"
    #: MAX-like: tolerant of the same writer contributing via multiple paths.
    duplicate_insensitive: bool = False
    #: SUM-like: supports efficient removal of a contribution.
    subtractable: bool = False
    #: PAOs and deltas are plain numbers with ``merge == +`` and
    #: ``negate == -`` (SUM, COUNT): a single writer's write applies its
    #: scatter-table rows as ``values[dst] += sign * delta``.
    scalar_delta: bool = False
    #: The columnar read result *is* the column scalar: one column whose
    #: ``tolist()`` value ``column_spec.unpack`` and :meth:`finalize` both
    #: return unchanged (SUM, COUNT), so reads skip the per-row calls.  A
    #: subclass that changes either must clear it.
    plain_reads: bool = False
    #: Declarative columnar layout (:class:`ColumnSpec`) enabling the dense
    #: numpy value store and vectorized batch kernels; ``None`` means PAOs
    #: are opaque objects and the state layer keeps them in the object store.
    column_spec: Optional[ColumnSpec] = None

    # -- core PAO algebra ------------------------------------------------

    @abstractmethod
    def identity(self) -> PAO:
        """The PAO of an empty input set (paper: INITIALIZE)."""

    @abstractmethod
    def lift(self, raw: Raw) -> PAO:
        """The PAO of a single raw stream value."""

    @abstractmethod
    def merge(self, a: PAO, b: PAO) -> PAO:
        """Combine two PAOs (pure; associative and commutative)."""

    @abstractmethod
    def finalize(self, pao: PAO) -> Any:
        """Produce the user-facing result from a PAO (paper: FINALIZE)."""

    def subtract(self, a: PAO, b: PAO) -> PAO:
        """Remove ``b``'s contribution from ``a`` (subtractable only)."""
        raise AggregateError(f"{self.name} does not support subtraction")

    # -- derived helpers ---------------------------------------------------

    def combine(self, paos: Iterable[PAO]) -> PAO:
        """Fold :meth:`merge` over ``paos`` starting from :meth:`identity`."""
        acc = self.identity()
        for pao in paos:
            acc = self.merge(acc, pao)
        return acc

    def combine_raw(self, raws: Iterable[Raw]) -> PAO:
        """Aggregate raw values directly (brute-force evaluation path)."""
        return self.combine(self.lift(raw) for raw in raws)

    def negate(self, pao: PAO) -> PAO:
        """The inverse element: ``merge(x, negate(x)) == identity``."""
        return self.subtract(self.identity(), pao)

    def delta(self, old: PAO, new: PAO) -> PAO:
        """The delta PAO ``d`` with ``merge(old, d) == new`` (group only)."""
        return self.subtract(new, old)

    def fast_update(self, current: PAO, old: PAO, new: PAO) -> PAO:
        """O(1) update of ``current`` when input changes ``old`` → ``new``.

        Lattice aggregates override this; returning :data:`NEED_RECOMPUTE`
        tells the engine to rebuild the PAO from all stored inputs.
        """
        return NEED_RECOMPUTE

    # -- cost model hints (Section 4.2) -----------------------------------

    def default_push_cost(self, k: int) -> float:
        """``H(k)``: average cost of one incremental (push) update."""
        return 1.0

    def default_pull_cost(self, k: int) -> float:
        """``L(k)``: average cost of one on-demand (pull) evaluation."""
        return float(max(k, 1))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Group (subtractable) aggregates
# ---------------------------------------------------------------------------


class Sum(AggregateFunction):
    """SUM over the window contents of the neighborhood's writers."""

    name = "sum"
    subtractable = True
    scalar_delta = True
    plain_reads = True
    column_spec = ColumnSpec(
        dtypes=("float64",),
        fills=(0.0,),
        kind="delta",
        merge_ufunc="add",
        sources=("value",),
        pack=_pack_float,
        unpack=_unpack_float,
    )

    def identity(self) -> float:
        return 0.0

    def lift(self, raw: Raw) -> float:
        return float(raw)

    def merge(self, a: float, b: float) -> float:
        return a + b

    def subtract(self, a: float, b: float) -> float:
        return a - b

    def finalize(self, pao: float) -> float:
        return pao


class Count(AggregateFunction):
    """COUNT of window entries across the neighborhood (event volume)."""

    name = "count"
    subtractable = True
    scalar_delta = True
    plain_reads = True
    # COUNT accepts arbitrary payloads (only their number matters), so raws
    # must stay in object window buffers: scalar_raws=False.
    column_spec = ColumnSpec(
        dtypes=("int64",),
        fills=(0,),
        kind="delta",
        merge_ufunc="add",
        sources=("count",),
        scalar_raws=False,
        pack=_pack_int,
        unpack=_unpack_int,
    )

    def identity(self) -> int:
        return 0

    def lift(self, raw: Raw) -> int:
        return 1

    def merge(self, a: int, b: int) -> int:
        return a + b

    def subtract(self, a: int, b: int) -> int:
        return a - b

    def finalize(self, pao: int) -> int:
        return pao


class Mean(AggregateFunction):
    """Arithmetic mean; PAO is the algebraic pair ``(sum, count)``.

    As a group (subtractable) aggregate MEAN never takes the lattice
    propagation path, so the inherited :meth:`AggregateFunction.fast_update`
    (which would return :data:`NEED_RECOMPUTE`) is unreachable from compiled
    plans; its batched fast path is instead the two-column spec below, which
    lets the columnar kernel carry ``(Δsum, Δcount)`` through one pair of
    additive scatters.
    """

    name = "mean"
    subtractable = True
    column_spec = ColumnSpec(
        dtypes=("float64", "int64"),
        fills=(0.0, 0),
        kind="delta",
        merge_ufunc="add",
        sources=("value", "count"),
        pack=_pack_float_int,
        unpack=_unpack_float_int,
    )

    def identity(self) -> Tuple[float, int]:
        return (0.0, 0)

    def lift(self, raw: Raw) -> Tuple[float, int]:
        return (float(raw), 1)

    def merge(self, a: Tuple[float, int], b: Tuple[float, int]) -> Tuple[float, int]:
        return (a[0] + b[0], a[1] + b[1])

    def subtract(self, a: Tuple[float, int], b: Tuple[float, int]) -> Tuple[float, int]:
        return (a[0] - b[0], a[1] - b[1])

    def finalize(self, pao: Tuple[float, int]) -> Optional[float]:
        total, count = pao
        return total / count if count else None


class TopK(AggregateFunction):
    """TOP-K: the ``k`` most frequent values in the neighborhood's windows.

    The paper's holistic aggregate (a generalization of *mode*, not of max).
    The PAO is a value→count table; counts may be transiently negative inside
    pull accumulation (a negative edge applied before its matching positive
    contribution) and cancel by the time a result is finalized.
    """

    name = "topk"
    subtractable = True

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def identity(self) -> Dict[Any, int]:
        return {}

    def lift(self, raw: Raw) -> Dict[Any, int]:
        return {raw: 1}

    def merge(self, a: Dict[Any, int], b: Dict[Any, int]) -> Dict[Any, int]:
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for value, count in b.items():
            total = out.get(value, 0) + count
            if total:
                out[value] = total
            else:
                out.pop(value, None)
        return out

    def subtract(self, a: Dict[Any, int], b: Dict[Any, int]) -> Dict[Any, int]:
        out = dict(a)
        for value, count in b.items():
            total = out.get(value, 0) - count
            if total:
                out[value] = total
            else:
                out.pop(value, None)
        return out

    def finalize(self, pao: Dict[Any, int]) -> List[Tuple[Any, int]]:
        positive = [(v, c) for v, c in pao.items() if c > 0]
        positive.sort(key=lambda item: (-item[1], repr(item[0])))
        return positive[: self.k]

    def default_push_cost(self, k: int) -> float:
        return 2.0  # hash-table delta application, independent of fan-in

    def default_pull_cost(self, k: int) -> float:
        return 4.0 * max(k, 1)  # merging k counter tables

    def __repr__(self) -> str:
        return f"TopK(k={self.k})"


class CountDistinct(AggregateFunction):
    """Exact distinct-value count, counter-backed so windows subtract cleanly."""

    name = "count_distinct"
    subtractable = True

    def identity(self) -> Dict[Any, int]:
        return {}

    def lift(self, raw: Raw) -> Dict[Any, int]:
        return {raw: 1}

    def merge(self, a: Dict[Any, int], b: Dict[Any, int]) -> Dict[Any, int]:
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for value, count in b.items():
            total = out.get(value, 0) + count
            if total:
                out[value] = total
            else:
                out.pop(value, None)
        return out

    def subtract(self, a: Dict[Any, int], b: Dict[Any, int]) -> Dict[Any, int]:
        out = dict(a)
        for value, count in b.items():
            total = out.get(value, 0) - count
            if total:
                out[value] = total
            else:
                out.pop(value, None)
        return out

    def finalize(self, pao: Dict[Any, int]) -> int:
        return sum(1 for count in pao.values() if count > 0)

    def default_push_cost(self, k: int) -> float:
        return 2.0

    def default_pull_cost(self, k: int) -> float:
        return 3.0 * max(k, 1)


# ---------------------------------------------------------------------------
# Lattice (duplicate-insensitive, non-subtractable) aggregates
# ---------------------------------------------------------------------------


class Max(AggregateFunction):
    """MAX; PAO is the extremum (``None`` for an empty window)."""

    name = "max"
    duplicate_insensitive = True
    # Lattice-scalar: one float column with nan encoding the empty extremum.
    column_spec = ColumnSpec(
        dtypes=("float64",),
        fills=(float("nan"),),
        kind="lattice",
        merge_ufunc="maximum",
        pack=_pack_optional_float,
        unpack=_unpack_optional_float,
    )

    def identity(self) -> Optional[float]:
        return None

    def lift(self, raw: Raw) -> float:
        return float(raw)

    def merge(self, a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None:
            return b
        if b is None:
            return a
        return a if a >= b else b

    def finalize(self, pao: Optional[float]) -> Optional[float]:
        return pao

    def fast_update(self, current: PAO, old: PAO, new: PAO) -> PAO:
        grown = self.merge(current, new)
        if new is not None and (current is None or new >= current):
            return grown  # new value (weakly) dominates: it is the max
        if old is None or (current is not None and old < current):
            return current  # a non-maximal input changed: max unaffected
        return NEED_RECOMPUTE  # the maximal input shrank or vanished

    def default_push_cost(self, k: int) -> float:
        return math.log2(k) + 1.0 if k > 1 else 1.0

    def default_pull_cost(self, k: int) -> float:
        return float(max(k, 1))


class Min(AggregateFunction):
    """MIN; mirror image of :class:`Max`."""

    name = "min"
    duplicate_insensitive = True
    column_spec = ColumnSpec(
        dtypes=("float64",),
        fills=(float("nan"),),
        kind="lattice",
        merge_ufunc="minimum",
        pack=_pack_optional_float,
        unpack=_unpack_optional_float,
    )

    def identity(self) -> Optional[float]:
        return None

    def lift(self, raw: Raw) -> float:
        return float(raw)

    def merge(self, a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None:
            return b
        if b is None:
            return a
        return a if a <= b else b

    def finalize(self, pao: Optional[float]) -> Optional[float]:
        return pao

    def fast_update(self, current: PAO, old: PAO, new: PAO) -> PAO:
        grown = self.merge(current, new)
        if new is not None and (current is None or new <= current):
            return grown
        if old is None or (current is not None and old > current):
            return current
        return NEED_RECOMPUTE

    def default_push_cost(self, k: int) -> float:
        return math.log2(k) + 1.0 if k > 1 else 1.0


class DistinctSet(AggregateFunction):
    """UNIQUE as a *set union* — duplicate-insensitive but not subtractable.

    The PAO is a frozenset of values seen in the neighborhood's windows.
    This is the variant the paper lists with MAX/MIN as duplicate-insensitive
    (the counter-backed :class:`CountDistinct` is the subtractable twin).
    """

    name = "distinct_set"
    duplicate_insensitive = True

    def identity(self) -> frozenset:
        return frozenset()

    def lift(self, raw: Raw) -> frozenset:
        return frozenset((raw,))

    def merge(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def finalize(self, pao: frozenset) -> frozenset:
        return pao

    def fast_update(self, current: PAO, old: PAO, new: PAO) -> PAO:
        if old <= new:  # inputs only grew: union grows monotonically
            return current | new
        return NEED_RECOMPUTE

    def default_push_cost(self, k: int) -> float:
        return 2.0

    def default_pull_cost(self, k: int) -> float:
        return 3.0 * max(k, 1)


# ---------------------------------------------------------------------------
# User-defined aggregates (paper Section 2.2.3)
# ---------------------------------------------------------------------------


class UserDefinedAggregate(AggregateFunction):
    """Adapter wrapping plain functions into the EAGr aggregate API.

    Mirrors the paper's API: the user supplies ``initialize`` (INITIALIZE),
    ``merge`` (the PAO-merge EAGr requires for sharing), ``finalize``
    (FINALIZE), and optionally ``lift``, ``subtract`` and cost functions.
    ``UPDATE(PAO, PAO_old, PAO_new)`` is derived: for subtractable
    aggregates as ``merge(subtract(PAO, PAO_old), PAO_new)``, otherwise by
    recomputation.
    """

    def __init__(
        self,
        name: str,
        initialize: Callable[[], PAO],
        merge: Callable[[PAO, PAO], PAO],
        finalize: Callable[[PAO], Any],
        lift: Optional[Callable[[Raw], PAO]] = None,
        subtract: Optional[Callable[[PAO, PAO], PAO]] = None,
        duplicate_insensitive: bool = False,
        push_cost: Optional[Callable[[int], float]] = None,
        pull_cost: Optional[Callable[[int], float]] = None,
    ) -> None:
        self.name = name
        self._initialize = initialize
        self._merge = merge
        self._finalize = finalize
        self._lift = lift
        self._subtract = subtract
        self.duplicate_insensitive = duplicate_insensitive
        self.subtractable = subtract is not None
        self._push_cost = push_cost
        self._pull_cost = pull_cost

    def identity(self) -> PAO:
        return self._initialize()

    def lift(self, raw: Raw) -> PAO:
        if self._lift is not None:
            return self._lift(raw)
        return self.merge(self.identity(), raw)

    def merge(self, a: PAO, b: PAO) -> PAO:
        return self._merge(a, b)

    def subtract(self, a: PAO, b: PAO) -> PAO:
        if self._subtract is None:
            raise AggregateError(f"{self.name} does not support subtraction")
        return self._subtract(a, b)

    def finalize(self, pao: PAO) -> Any:
        return self._finalize(pao)

    def default_push_cost(self, k: int) -> float:
        if self._push_cost is not None:
            return self._push_cost(k)
        return super().default_push_cost(k)

    def default_pull_cost(self, k: int) -> float:
        if self._pull_cost is not None:
            return self._pull_cost(k)
        return super().default_pull_cost(k)

    def __repr__(self) -> str:
        return f"UserDefinedAggregate({self.name!r})"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BUILTINS: Dict[str, Callable[[], AggregateFunction]] = {
    "sum": Sum,
    "count": Count,
    "mean": Mean,
    "avg": Mean,
    "max": Max,
    "min": Min,
    "topk": TopK,
    "top-k": TopK,
    "count_distinct": CountDistinct,
    "distinct_set": DistinctSet,
}


def get_aggregate(name: str, **kwargs) -> AggregateFunction:
    """Instantiate a built-in aggregate by name (``sum``, ``max``, ``topk``…)."""
    try:
        factory = _BUILTINS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown aggregate {name!r}; options: {sorted(set(_BUILTINS))}"
        ) from None
    return factory(**kwargs)
