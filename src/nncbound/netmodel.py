"""Network containers and cutset machinery.

Everything downstream (discrete evaluators, Gaussian closed forms, the CLI)
works in terms of the types here: bitmask node sets over 1-based node
indices, validated network descriptions, and rate regions expressed as
per-cut linear constraints.

Conventions
-----------
* Nodes are numbered 1..N (N <= 16); node k maps to bit k-1 of a mask.
* A "cut" is a node set S; traffic crosses from S to its complement.
* Rate-region constraints are stored clamped at zero: a negative bound
  value means the constraint set is empty in that direction, which we
  represent as 0 (no rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EvaluationError, SchemaError

MAX_NODES = 16

# Tensors larger than this are rejected up front rather than discovered via
# a memory error mid-evaluation.
MAX_STATES = 1 << 24


@dataclass(frozen=True)
class NodeSet:
    """Immutable set of node indices backed by a bitmask.

    Carries the universe size ``n_nodes`` so complement is well defined and
    sets from different networks cannot be mixed silently.
    """

    n_nodes: int
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_nodes <= MAX_NODES:
            raise SchemaError(
                f"node count {self.n_nodes} outside supported range 0..{MAX_NODES}"
            )
        if not 0 <= self.mask < (1 << self.n_nodes):
            raise SchemaError(
                f"mask {self.mask:#x} does not fit a {self.n_nodes}-node universe"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, n_nodes: int, *nodes: int) -> NodeSet:
        """Build a set from explicit 1-based node indices."""
        mask = 0
        for k in nodes:
            if not 1 <= k <= n_nodes:
                raise SchemaError(f"node {k} outside 1..{n_nodes}")
            mask |= 1 << (k - 1)
        return cls(n_nodes, mask)

    @classmethod
    def from_nodes(cls, n_nodes: int, nodes: Iterable[int]) -> NodeSet:
        return cls.of(n_nodes, *nodes)

    @classmethod
    def empty(cls, n_nodes: int) -> NodeSet:
        return cls(n_nodes, 0)

    @classmethod
    def full(cls, n_nodes: int) -> NodeSet:
        return cls(n_nodes, (1 << n_nodes) - 1)

    # -- set behaviour --------------------------------------------------

    def __contains__(self, node: int) -> bool:
        return 1 <= node <= self.n_nodes and bool(self.mask >> (node - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        for k in range(1, self.n_nodes + 1):
            if self.mask >> (k - 1) & 1:
                yield k

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_same_universe(self, other: NodeSet) -> None:
        if self.n_nodes != other.n_nodes:
            raise SchemaError(
                f"node sets from different universes: {self.n_nodes} vs {other.n_nodes}"
            )

    def __or__(self, other: NodeSet) -> NodeSet:
        self._check_same_universe(other)
        return NodeSet(self.n_nodes, self.mask | other.mask)

    def __and__(self, other: NodeSet) -> NodeSet:
        self._check_same_universe(other)
        return NodeSet(self.n_nodes, self.mask & other.mask)

    def __sub__(self, other: NodeSet) -> NodeSet:
        self._check_same_universe(other)
        return NodeSet(self.n_nodes, self.mask & ~other.mask)

    def complement(self) -> NodeSet:
        return NodeSet(self.n_nodes, (1 << self.n_nodes) - 1 - self.mask)

    def issubset(self, other: NodeSet) -> bool:
        self._check_same_universe(other)
        return self.mask & ~other.mask == 0

    def add(self, node: int) -> NodeSet:
        return self | NodeSet.of(self.n_nodes, node)

    def remove(self, node: int) -> NodeSet:
        return self - NodeSet.of(self.n_nodes, node)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return "{" + ",".join(str(k) for k in self) + "}"


def subsets_between(lo: NodeSet, hi: NodeSet) -> list[NodeSet]:
    """All node sets T with lo <= T <= hi, in ascending mask order."""
    if not lo.issubset(hi):
        return []
    free = hi.mask & ~lo.mask
    out = []
    # Standard subset-of-a-mask walk over the free bits.
    sub = 0
    while True:
        out.append(NodeSet(hi.n_nodes, lo.mask | sub))
        if sub == free:
            break
        sub = (sub - free) & free
    out.sort(key=lambda s: s.mask)
    return out


def _as_dest_tuple(n_nodes: int, dests: Sequence[NodeSet]) -> tuple[NodeSet, ...]:
    if len(dests) != n_nodes:
        raise SchemaError(
            f"need one destination set per node: got {len(dests)} for {n_nodes} nodes"
        )
    for d in dests:
        if d.n_nodes != n_nodes:
            raise SchemaError("destination set universe does not match node count")
    return tuple(dests)


@dataclass(frozen=True)
class DmNetwork:
    """Discrete memoryless network with per-node input/output alphabets.

    Parameters
    ----------
    x_sizes, y_sizes:
        Alphabet cardinalities |X_k|, |Y_k| for nodes k = 1..N.  A node
        that does not transmit (or observe) gets a size-1 alphabet.
    channel:
        Conditional pmf tensor of shape ``(*x_sizes, *y_sizes)``; entry
        ``channel[x1,...,xN, y1,...,yN]`` is p(y^N | x^N).  Rows must sum
        to 1 within 1e-12.
    dests:
        One :class:`NodeSet` per node: the destinations that must decode
        that node's message.  Empty set = the node carries no message.
    """

    x_sizes: tuple[int, ...]
    y_sizes: tuple[int, ...]
    channel: np.ndarray
    dests: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        n = len(self.x_sizes)
        if n == 0 or n > MAX_NODES:
            raise SchemaError(f"node count {n} outside supported range 1..{MAX_NODES}")
        if len(self.y_sizes) != n:
            raise SchemaError("x_sizes and y_sizes must have equal length")
        if any(s < 1 for s in self.x_sizes + self.y_sizes):
            raise SchemaError("alphabet sizes must be >= 1")
        states = math.prod(self.x_sizes) * math.prod(self.y_sizes)
        if states > MAX_STATES:
            raise SchemaError(
                f"channel state count {states} exceeds limit {MAX_STATES}"
            )
        expect = tuple(self.x_sizes) + tuple(self.y_sizes)
        if self.channel.shape != expect:
            raise SchemaError(
                f"channel shape {self.channel.shape} != expected {expect}"
            )
        if np.any(self.channel < 0):
            raise SchemaError("channel tensor has negative entries")
        y_axes = tuple(range(n, 2 * n))
        row_sums = self.channel.sum(axis=y_axes)
        bad = np.abs(row_sums - 1.0) > 1e-12
        if np.any(bad):
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise SchemaError(
                f"channel row p(.|x={idx}) sums to {row_sums[bad][0]!r}, not 1"
            )
        object.__setattr__(self, "dests", _as_dest_tuple(n, self.dests))

    @property
    def n_nodes(self) -> int:
        return len(self.x_sizes)


@dataclass(frozen=True)
class GaussianNetwork:
    """Additive-white-Gaussian network with symmetric per-node power limit.

    ``gains[j-1, k-1]`` is the amplitude gain from sender j into receiver
    k; the receiver-side channel matrix is therefore ``gains.T``.  Noise
    at every receiver is unit variance; every sender obeys the same
    average power limit ``power``.
    """

    gains: np.ndarray
    power: float
    dests: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise SchemaError(f"gains must be square, got shape {g.shape}")
        n = g.shape[0]
        if n == 0 or n > MAX_NODES:
            raise SchemaError(f"node count {n} outside supported range 1..{MAX_NODES}")
        if not np.all(np.isfinite(g)):
            raise SchemaError("gains must be finite")
        if not (math.isfinite(self.power) and self.power >= 0):
            raise SchemaError(f"power must be finite and >= 0, got {self.power!r}")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "dests", _as_dest_tuple(n, self.dests))

    @property
    def n_nodes(self) -> int:
        return int(self.gains.shape[0])


@dataclass(frozen=True)
class CutsetEntry:
    """One evaluated constraint: bound value for a cut/destination pair.

    ``raw`` may be negative (the compression penalty can exceed the flow
    term); ``clamped`` is ``max(raw, 0)``.  ``rate_set`` is the set of
    source nodes whose rate sum the constraint limits — by default the cut
    itself, but some bounds constrain a subset.
    """

    cutset: NodeSet
    dest: int | None
    raw: float
    clamped: float
    flow_term: float
    penalty_term: float
    rate_set: NodeSet | None = None

    @property
    def constrained(self) -> NodeSet:
        return self.rate_set if self.rate_set is not None else self.cutset


@dataclass(frozen=True)
class CutsetReport:
    """All constraint evaluations produced by one bound computation."""

    bound: str
    entries: tuple[CutsetEntry, ...]

    def __iter__(self) -> Iterator[CutsetEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RateRegion:
    """Rate region cut out by constraints sum_{k in S} R_k <= bound(S).

    Bounds are clamped at zero on construction.  The region is over all
    ``n_nodes`` rates; nodes that never appear in a constraint are
    unconstrained (their rate may grow without bound).
    """

    n_nodes: int
    constraints: Mapping[NodeSet, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clamped: dict[NodeSet, float] = {}
        for s, v in self.constraints.items():
            if s.n_nodes != self.n_nodes:
                raise SchemaError("constraint node set universe mismatch")
            if not s:
                raise SchemaError("empty node set cannot carry a rate constraint")
            clamped[s] = max(float(v), 0.0)
        object.__setattr__(self, "constraints", clamped)

    def bound(self, s: NodeSet) -> float:
        """Tightest stored bound applying to exactly the set ``s``."""
        try:
            return self.constraints[s]
        except KeyError:
            raise SchemaError(f"no constraint stored for {s}") from None

    def items(self) -> Iterable[tuple[NodeSet, float]]:
        return sorted(self.constraints.items(), key=lambda kv: kv[0].mask)


def enumerate_cutsets(
    n_nodes: int,
    multicast: NodeSet | None = None,
    dests: Sequence[NodeSet] | None = None,
) -> list[tuple[NodeSet, NodeSet]]:
    """Enumerate cuts S with their eligible destination nodes.

    The destinations come from one selector:

    * ``multicast``: a fixed destination set D; eligible nodes for a cut S
      are the destinations outside S.
    * ``dests``: per-node destination sets; eligible nodes for S are the
      nodes outside S that are a destination of some node inside S.

    When both are given, ``multicast`` replaces ``dests``, so a caller
    can pass its network's ``dests`` together with an optional multicast
    set; giving neither raises :class:`SchemaError`.

    Cuts with no eligible destination (including the empty and full sets)
    are skipped.  Returned in ascending bitmask order.
    """
    if n_nodes < 1 or n_nodes > MAX_NODES:
        raise SchemaError(f"node count {n_nodes} outside supported range 1..{MAX_NODES}")
    if multicast is None and dests is None:
        raise SchemaError("give multicast= or dests=")
    if multicast is not None and multicast.n_nodes != n_nodes:
        raise SchemaError("multicast set universe does not match node count")
    if multicast is None:
        dests = _as_dest_tuple(n_nodes, dests)

    out: list[tuple[NodeSet, NodeSet]] = []
    for mask in range(1, 1 << n_nodes):
        s = NodeSet(n_nodes, mask)
        if multicast is not None:
            wanted = multicast
        else:
            assert dests is not None
            agg = 0
            for k in s:
                agg |= dests[k - 1].mask
            wanted = NodeSet(n_nodes, agg)
        eligible = s.complement() & wanted
        if eligible:
            out.append((s, eligible))
    return out


def region_from_report(report: CutsetReport) -> RateRegion:
    """Collapse a report into a rate region.

    For each constrained rate set, the binding value is the minimum of the
    clamped entry values over all cuts/destinations that constrain it.
    """
    if not report.entries:
        raise SchemaError("cannot build a region from an empty report")
    n = report.entries[0].cutset.n_nodes
    best: dict[NodeSet, float] = {}
    for e in report.entries:
        key = e.constrained
        if not key:
            # A constraint on the empty rate set carries no information.
            continue
        if key not in best or e.clamped < best[key]:
            best[key] = e.clamped
    return RateRegion(n, best)


def _two_var_max(
    caps: list[tuple[int, float]], pair_cap: float, w1: float, w2: float
) -> float:
    """Vertex maximization of w1*x + w2*y over 0<=x<=a, 0<=y<=b, x+y<=c."""
    a = math.inf
    b = math.inf
    for which, v in caps:
        if which == 0:
            a = min(a, v)
        else:
            b = min(b, v)
    c = pair_cap
    if math.isinf(c):
        # No joint constraint; the coverage check has already ruled out
        # unbounded single-variable directions.
        return w1 * a + w2 * b
    a = min(a, c)
    b = min(b, c)
    cands = [
        (0.0, 0.0),
        (a, 0.0),
        (0.0, b),
        (a, min(b, c - a)),
        (min(a, c - b), b),
    ]
    return max(w1 * x + w2 * y for x, y in cands)


def max_weighted_sum(
    region: RateRegion,
    weights: Sequence[float],
    active_sources: NodeSet,
) -> float:
    """Maximize a nonnegative weighted sum of rates over a region.

    Rates of nodes outside ``active_sources`` are pinned to zero.  With at
    most two positively-weighted active sources the maximum is found by
    exact vertex enumeration; otherwise a linear program is solved.

    Returns ``math.inf`` when some positively-weighted active source
    appears in no constraint (its rate is unbounded in the region).
    """
    n = region.n_nodes
    if len(weights) != n:
        raise SchemaError(f"need {n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise SchemaError("weights must be nonnegative")
    if active_sources.n_nodes != n:
        raise SchemaError("active_sources universe does not match region")

    # Zero-weight rates contribute nothing and only consume constraint
    # budget, so the optimum always sets them to zero.
    live = [k for k in active_sources if weights[k - 1] > 0]
    if not live:
        return 0.0

    live_set = NodeSet.from_nodes(n, live)
    covered = 0
    for s in region.constraints:
        covered |= (s & live_set).mask
    if covered != live_set.mask:
        return math.inf

    if len(live) == 1:
        k = live[0]
        cap = min(v for s, v in region.constraints.items() if k in s)
        return weights[k - 1] * cap

    if len(live) == 2:
        i, j = live
        singles: list[tuple[int, float]] = []
        pair = math.inf
        for s, v in region.constraints.items():
            has_i, has_j = i in s, j in s
            if has_i and has_j:
                pair = min(pair, v)
            elif has_i:
                singles.append((0, v))
            elif has_j:
                singles.append((1, v))
        return _two_var_max(singles, pair, weights[i - 1], weights[j - 1])

    from scipy.optimize import linprog

    rows = []
    rhs = []
    for s, v in region.constraints.items():
        pattern = [1.0 if k in s else 0.0 for k in live]
        if any(pattern):
            rows.append(pattern)
            rhs.append(v)
    res = linprog(
        c=[-weights[k - 1] for k in live],
        A_ub=rows,
        b_ub=rhs,
        bounds=[(0, None)] * len(live),
        method="highs",
    )
    if res.status != 0:
        raise EvaluationError(f"rate LP failed: {res.message}")
    return float(-res.fun)
