"""Information quantities over labeled discrete joint distributions.

The bound evaluators all reduce to conditional mutual informations of a
single assembled joint pmf over variables named by role:

* ``Q`` — time-sharing variable,
* ``Xk`` — channel input at node k,
* ``Uk`` — layering (cloud-center) variable at node k,
* ``Yk`` — channel output at node k,
* ``Yhk`` — the compressed description of ``Yk`` forwarded by node k.

A joint is a factor list: validated conditional pmfs whose product is
the joint, which is never formed.  Each marginal is contracted on demand
from the factors it needs (barren-node elimination, then one einsum), and
``MAX_STATES`` caps each factor and each marginal.  Conditional mutual
information is computed from four entropies,
I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), all in bits.

The Gaussian helpers at the bottom compute the log-det rates of cuts for
unit-noise additive networks with a symmetric power limit, batched by cut
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EvaluationError, SchemaError
from .netmodel import MAX_STATES, DmNetwork, GaussianNetwork, NodeSet, popcounts

_LN2 = math.log(2.0)

# Negative conditional MI beyond this magnitude indicates an inconsistent
# joint (or a bug), not floating-point noise.
MI_TOLERANCE = 1e-9


def q_label() -> str:
    return "Q"


def x_label(k: int) -> str:
    return f"X{k}"


def u_label(k: int) -> str:
    return f"U{k}"


def y_label(k: int) -> str:
    return f"Y{k}"


def yhat_label(k: int) -> str:
    return f"Yh{k}"


def x_labels(nodes: Iterable[int]) -> list[str]:
    return [x_label(k) for k in nodes]


def y_labels(nodes: Iterable[int]) -> list[str]:
    return [y_label(k) for k in nodes]


def u_labels(nodes: Iterable[int]) -> list[str]:
    return [u_label(k) for k in nodes]


def yhat_labels(nodes: Iterable[int]) -> list[str]:
    return [yhat_label(k) for k in nodes]


@dataclass(frozen=True, eq=False)
class Factor:
    """One conditional pmf p(children | parents) of a joint.

    ``array`` has one axis per entry of ``labels``; the labels not in
    ``children`` are the parents.  Entries must be nonnegative and, for
    every parent configuration, sum to 1 over the children within 1e-10.
    Sums over subsets of the children are memoized on the factor, so
    joints that share a factor object share its partial reductions, and
    they are freed with it.
    """

    array: np.ndarray
    labels: tuple[str, ...]
    children: frozenset[str]
    _sums: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "children", frozenset(self.children))
        arr = self.array
        if len(set(labels)) != len(labels):
            raise SchemaError(f"factor labels {list(labels)} must be unique")
        if arr.ndim != len(labels):
            raise SchemaError(f"{len(labels)} labels but tensor has {arr.ndim} axes")
        if not self.children or not self.children <= set(labels):
            raise SchemaError(
                f"factor children {sorted(self.children)} must be a nonempty "
                f"subset of its labels {list(labels)}"
            )
        if arr.size > MAX_STATES:
            raise SchemaError(f"factor state count {arr.size} exceeds limit {MAX_STATES}")
        if np.any(arr < 0):
            raise SchemaError("joint distribution has negative entries")
        axes = tuple(i for i, lab in enumerate(labels) if lab in self.children)
        sums = arr.sum(axis=axes)
        bad = np.abs(sums - 1.0) > 1e-10
        if np.any(bad):
            what = "joint distribution" if sums.ndim == 0 else f"factor over {list(labels)}"
            raise SchemaError(f"{what} sums to {sums[bad].flat[0]!r}, not 1")

    def summed(self, drop: frozenset[str]) -> tuple[np.ndarray, tuple[str, ...]]:
        """This factor summed over the children in ``drop`` (memoized)."""
        if not drop:
            return self.array, self.labels
        if drop not in self._sums:
            axes = tuple(i for i, lab in enumerate(self.labels) if lab in drop)
            self._sums[drop] = (
                self.array.sum(axis=axes),
                tuple(lab for lab in self.labels if lab not in drop),
            )
        return self._sums[drop]


# np.einsum names axes with single letters, upper and lower case.
_EINSUM_AXES = 52
# A contraction whose variables span at most this many states runs as one
# unplanned einsum pass: below about 2^14 states the pass is cheaper than
# planning a pairwise order (about 1 ms per marginal).
_DIRECT_STATES = 1 << 14


class JointDistribution:
    """Joint pmf over named variables, held as a product of factors.

    ``JointDistribution(labels, probs)`` is a dense joint: one factor
    whose children are all its labels.  ``JointDistribution(labels,
    factors=...)`` is a Bayesian network: the factors come in topological
    order (each factor's parents are children of earlier factors) and
    every label is a child of exactly one factor.  No dense product is
    ever formed; ``marginal`` contracts what it needs, and ``probs`` is the
    marginal over all labels.  ``MAX_STATES`` caps each stored factor and
    each contracted marginal, not the product of all factors.
    """

    def __init__(
        self,
        labels: Sequence[str],
        probs: np.ndarray | None = None,
        *,
        factors: Sequence[Factor] = (),
    ):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise SchemaError("joint distribution labels must be unique")
        if probs is not None:
            if factors:
                raise SchemaError("give a dense tensor or factors, not both")
            factors = (Factor(np.asarray(probs), labels, frozenset(labels)),)
        cards: dict[str, int] = {}
        for f in factors:
            for lab, size in zip(f.labels, f.array.shape):
                if lab not in f.children and lab not in cards:
                    raise SchemaError(
                        f"factor over {list(f.labels)}: parent {lab!r} is not "
                        "a child of an earlier factor"
                    )
                if lab in f.children and lab in cards:
                    raise SchemaError(f"variable {lab!r} is a child of two factors")
                if cards.setdefault(lab, size) != size:
                    raise SchemaError(
                        f"variable {lab!r} has size {size} in one factor and "
                        f"{cards[lab]} in another"
                    )
        if set(cards) != set(labels):
            raise SchemaError(
                f"factors cover {sorted(cards)}, joint labels are {sorted(labels)}"
            )
        self.labels = labels
        self.factors = tuple(factors)
        self._axis = {lab: i for i, lab in enumerate(labels)}
        self._card = cards

    def axis(self, label: str) -> int:
        try:
            return self._axis[label]
        except KeyError:
            raise SchemaError(f"unknown variable label {label!r}") from None

    def card(self, label: str) -> int:
        self.axis(label)
        return self._card[label]

    @property
    def probs(self) -> np.ndarray:
        """The dense joint tensor, contracted on each access."""
        return self.marginal(self.labels)

    def marginal(self, labels: Iterable[str]) -> np.ndarray:
        """Marginal pmf over ``labels``, axes in this joint's label order.

        Barren-node elimination first: walking the factors backwards, a
        factor none of whose children is kept or read by a factor still
        in play sums to 1 and is dropped; a factor with only some such
        children is summed over them.  The rest is one einsum, planned
        greedily unless its variables span at most ``_DIRECT_STATES``.
        """
        keep = set(labels)
        for lab in keep:
            self.axis(lab)  # raises on unknown labels
        out = [lab for lab in self.labels if lab in keep]
        states = math.prod(self._card[lab] for lab in out)
        if states > MAX_STATES:
            raise SchemaError(
                f"marginal state count {states} exceeds limit {MAX_STATES}"
            )
        needed = set(keep)
        operands = []
        for f in reversed(self.factors):
            if not f.children & needed:
                continue
            arr, labs = f.summed(f.children - needed)
            needed.update(labs)
            operands.append((arr, labs))
        if not operands:
            return np.ones(())
        # Size-1 axes carry no information; leaving them out keeps large
        # networks with trivial alphabets within einsum's axis limit.
        ids: dict[str, int] = {}
        args: list = []
        for arr, labs in operands:
            live = [lab for lab in labs if self._card[lab] > 1]
            args += [arr.reshape([self._card[lab] for lab in live]),
                     [ids.setdefault(lab, len(ids)) for lab in live]]
        if len(ids) > _EINSUM_AXES:
            raise SchemaError(
                f"marginal needs {len(ids)} variables with more than one state; "
                f"the limit is {_EINSUM_AXES}"
            )
        args.append([ids[lab] for lab in out if self._card[lab] > 1])
        direct = math.prod(self._card[lab] for lab in ids) <= _DIRECT_STATES
        m = np.einsum(*args, optimize=False if direct else "greedy")
        return m.reshape([self._card[lab] for lab in out])


def entropy(joint: JointDistribution, labels: Iterable[str]) -> float:
    """Entropy in bits of the marginal over ``labels`` (0.0 for no labels)."""
    labels = list(labels)
    if not labels:
        return 0.0
    p = joint.marginal(labels).ravel()
    p = p[p > 0]
    return float(-np.dot(p, np.log(p)) / _LN2)


class EntropyCache:
    """Memoizes subset entropies of one joint across many MI queries.

    The bound evaluators ask for many overlapping conditional mutual
    informations of the same assembled joint; caching the underlying
    entropies keeps that quadratic-ish workload linear in distinct
    marginals.
    """

    def __init__(self, joint: JointDistribution):
        self.joint = joint
        self._h: dict[frozenset[str], float] = {}

    def entropy(self, labels: Iterable[str]) -> float:
        key = frozenset(labels)
        if key not in self._h:
            self._h[key] = entropy(self.joint, key)
        return self._h[key]

    def cmi(
        self,
        a: Iterable[str],
        b: Iterable[str],
        c: Iterable[str] = (),
    ) -> float:
        a, b, c = set(a), set(b), set(c)
        if a & b or a & c or b & c:
            raise SchemaError(
                "conditional MI needs pairwise disjoint label sets; "
                f"got overlap {sorted((a & b) | (a & c) | (b & c))}"
            )
        for lab in a | b | c:
            self.joint.axis(lab)  # raises on unknown labels
        if not a or not b:
            return 0.0
        value = (
            self.entropy(a | c)
            + self.entropy(b | c)
            - self.entropy(a | b | c)
            - self.entropy(c)
        )
        if value < -MI_TOLERANCE:
            raise EvaluationError(
                f"conditional MI came out {value!r} < -{MI_TOLERANCE}; "
                "joint distribution is internally inconsistent"
            )
        return max(value, 0.0)


def conditional_mi(
    joint: JointDistribution,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> float:
    """I(A; B | C) in bits via the four-entropy identity.

    The three label sets must be pairwise disjoint.  Values inside
    ``[-1e-9, 0)`` are floating-point noise and clamp to 0; anything more
    negative raises :class:`EvaluationError`.
    """
    return EntropyCache(joint).cmi(a, b, c)


@dataclass(frozen=True)
class CodingDistribution:
    """Factorized code design: time sharing, inputs, and compression.

    Plain mode (``superposition=False``):
        ``input_pmfs[k]`` has shape (|Q|, |X_{k+1}|) — p(x | q);
        ``compression[k]`` has shape (|Q|, |Y|, |X|, |Yh|) — p(yh | y, x, q).

    Superposition mode:
        ``input_pmfs[k]`` has shape (|Q|, |U|, |X|) — the joint p(u, x | q);
        ``compression[k]`` has shape (|Q|, |Y|, |U|, |Yh|) — p(yh | y, u, q).

    Every pmf row must sum to 1 within 1e-12.  Compressed-output alphabet
    sizes are free per node (a size-1 ``Yh`` axis disables compression at
    that node).
    """

    q_pmf: np.ndarray
    input_pmfs: tuple[np.ndarray, ...]
    compression: tuple[np.ndarray, ...]
    superposition: bool = False

    def __post_init__(self) -> None:
        q = np.asarray(self.q_pmf, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise SchemaError("q_pmf must be a nonempty vector")
        _check_rows(q[None, :], "q_pmf")
        object.__setattr__(self, "q_pmf", q)
        object.__setattr__(self, "input_pmfs", tuple(self.input_pmfs))
        object.__setattr__(self, "compression", tuple(self.compression))
        if len(self.input_pmfs) != len(self.compression):
            raise SchemaError("need one input pmf and one compressor per node")
        nq = q.size
        want_in = 3 if self.superposition else 2
        for k, arr in enumerate(self.input_pmfs, start=1):
            if arr.ndim != want_in or arr.shape[0] != nq:
                raise SchemaError(
                    f"input pmf for node {k}: expected {want_in} axes with "
                    f"leading |Q|={nq}, got shape {arr.shape}"
                )
            flat = arr.reshape(nq, -1)
            _check_rows(flat, f"input pmf for node {k}")
        for k, arr in enumerate(self.compression, start=1):
            if arr.ndim != 4 or arr.shape[0] != nq:
                raise SchemaError(
                    f"compressor for node {k}: expected 4 axes with leading "
                    f"|Q|={nq}, got shape {arr.shape}"
                )
            flat = arr.reshape(-1, arr.shape[-1])
            _check_rows(flat, f"compressor for node {k}")

    @property
    def n_nodes(self) -> int:
        return len(self.input_pmfs)

    @property
    def nq(self) -> int:
        return int(self.q_pmf.size)

    @property
    def yhat_sizes(self) -> tuple[int, ...]:
        return tuple(int(c.shape[-1]) for c in self.compression)

    @property
    def u_sizes(self) -> tuple[int, ...]:
        if not self.superposition:
            raise SchemaError("plain coding distribution has no layering variables")
        return tuple(int(p.shape[1]) for p in self.input_pmfs)

    @classmethod
    def uniform_copy(cls, net: DmNetwork, nq: int = 1) -> CodingDistribution:
        """Uniform independent inputs, forwarded outputs copied verbatim."""
        return cls(
            q_pmf=np.full(nq, 1.0 / nq),
            input_pmfs=uniform_inputs(net.x_sizes, nq),
            compression=copy_compression(net, nq),
        )


def _check_rows(rows: np.ndarray, what: str, tol: float = 1e-12) -> None:
    if np.any(rows < 0):
        raise SchemaError(f"{what} has negative entries")
    sums = rows.sum(axis=-1)
    bad = np.abs(sums - 1.0) > tol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SchemaError(f"{what}: row {i} sums to {sums.flat[i]!r}, not 1")


def uniform_inputs(x_sizes: Sequence[int], nq: int = 1) -> tuple[np.ndarray, ...]:
    return tuple(np.full((nq, sz), 1.0 / sz) for sz in x_sizes)


def copy_compression(net: DmNetwork, nq: int = 1) -> tuple[np.ndarray, ...]:
    """Per-node p(yh|y,x,q) that forwards y unchanged (Yh = Y)."""
    out = []
    for xk, yk in zip(net.x_sizes, net.y_sizes):
        arr = np.zeros((nq, yk, xk, yk))
        for y in range(yk):
            arr[:, y, :, y] = 1.0
        out.append(arr)
    return tuple(out)


def constant_compression(net: DmNetwork, nq: int = 1) -> tuple[np.ndarray, ...]:
    """Per-node size-1 compressed output (node forwards nothing)."""
    return tuple(
        np.ones((nq, yk, xk, 1)) for xk, yk in zip(net.x_sizes, net.y_sizes)
    )


def input_product(pmfs: Sequence[np.ndarray]) -> np.ndarray:
    """Product of per-node input pmfs that share a leading |Q| axis.

    ``pmfs[k]`` has shape (|Q|, ...) and gives p(a_k | q) over its
    trailing axes; the result has shape (|Q|, *trailing axes of node 1,
    *trailing axes of node 2, ...) and gives prod_k p(a_k | q).
    """
    nq = int(pmfs[0].shape[0])
    sizes = [s for p in pmfs for s in p.shape[1:]]
    states = nq * math.prod(sizes)
    if states > MAX_STATES:
        raise SchemaError(f"input state count {states} exceeds limit {MAX_STATES}")
    out = np.ones(nq)
    for p in pmfs:
        tail = p.ndim - 1
        out = out.reshape(out.shape + (1,) * tail) * p.reshape(
            (nq,) + (1,) * (out.ndim - 1) + p.shape[1:]
        )
    return out


def channel_factor(net: DmNetwork) -> Factor:
    """The channel p(y^N | x^N) as a factor.

    Joints built on the same factor object share its partial reductions.
    """
    nodes = range(1, net.n_nodes + 1)
    return Factor(
        net.channel, tuple(x_labels(nodes) + y_labels(nodes)), frozenset(y_labels(nodes))
    )


def _inputs_factor(
    q_pmf: np.ndarray, input_pmfs: Sequence[np.ndarray], superposition: bool = False
) -> Factor:
    """p(q, [u^N,] x^N) = p(q) prod_k p([u_k,] x_k | q) as one factor."""
    labels = [q_label()]
    for k in range(1, len(input_pmfs) + 1):
        labels += [u_label(k), x_label(k)] if superposition else [x_label(k)]
    arr = input_product(input_pmfs)
    arr *= q_pmf.reshape((-1,) + (1,) * (arr.ndim - 1))
    return Factor(arr, tuple(labels), frozenset(labels))


def assemble_joint(
    net: DmNetwork, dist: CodingDistribution
) -> JointDistribution:
    """The joint over (Q, [U,] X, Y, Yh) of a code design, as factors.

    p(q) * prod_k p(inputs_k|q) is folded into one input factor, followed
    by the channel p(y^N|x^N) and one compressor p(yh_k | y_k, x_k or u_k,
    q) per node.  Label order is Q, then per-node U (superposition only),
    X, Y, Yh blocks, nodes ascending within each block.
    """
    n = net.n_nodes
    if dist.n_nodes != n:
        raise SchemaError(
            f"coding distribution covers {dist.n_nodes} nodes, network has {n}"
        )
    for k in range(n):
        arr = dist.input_pmfs[k]
        if arr.shape[-1] != net.x_sizes[k]:
            raise SchemaError(
                f"input pmf for node {k + 1} has |X|={arr.shape[-1]}, "
                f"network says {net.x_sizes[k]}"
            )
        comp = dist.compression[k]
        if comp.shape[1] != net.y_sizes[k]:
            raise SchemaError(
                f"compressor for node {k + 1} has |Y|={comp.shape[1]}, "
                f"network says {net.y_sizes[k]}"
            )
        mid = comp.shape[2]
        if dist.superposition:
            if mid != dist.input_pmfs[k].shape[1]:
                raise SchemaError(
                    f"compressor for node {k + 1} disagrees with input pmf "
                    f"on |U| ({mid} vs {dist.input_pmfs[k].shape[1]})"
                )
        elif mid != net.x_sizes[k]:
            raise SchemaError(
                f"compressor for node {k + 1} has |X|={mid}, "
                f"network says {net.x_sizes[k]}"
            )

    nodes = range(1, n + 1)
    labels = [q_label()]
    if dist.superposition:
        labels += u_labels(nodes)
    labels += x_labels(nodes) + y_labels(nodes) + yhat_labels(nodes)
    mid_label = u_label if dist.superposition else x_label
    factors = [
        _inputs_factor(dist.q_pmf, dist.input_pmfs, dist.superposition),
        channel_factor(net),
    ]
    for k in nodes:
        factors.append(
            Factor(
                dist.compression[k - 1],
                (q_label(), y_label(k), mid_label(k), yhat_label(k)),
                frozenset([yhat_label(k)]),
            )
        )
    return JointDistribution(labels, factors=factors)


def joint_from_inputs(
    net: DmNetwork, x_pmf: np.ndarray, channel: Factor | None = None
) -> JointDistribution:
    """Joint over (X^N, Y^N) for an arbitrary — possibly correlated —
    input distribution ``x_pmf`` of shape ``net.x_sizes``.

    ``channel`` is ``channel_factor(net)``, given to share its partial
    reductions across the joints of one input family.
    """
    if x_pmf.shape != tuple(net.x_sizes):
        raise SchemaError(
            f"input pmf shape {x_pmf.shape} != network inputs {tuple(net.x_sizes)}"
        )
    _check_rows(x_pmf.reshape(1, -1), "joint input pmf")
    nodes = range(1, net.n_nodes + 1)
    xs = x_labels(nodes)
    if channel is None:
        channel = channel_factor(net)
    factors = [Factor(x_pmf, tuple(xs), frozenset(xs)), channel]
    return JointDistribution(xs + y_labels(nodes), factors=factors)


def joint_with_product_inputs(
    net: DmNetwork, q_pmf: np.ndarray, input_pmfs: Sequence[np.ndarray]
) -> JointDistribution:
    """Joint over (Q, X^N, Y^N) for independent per-node inputs given Q."""
    q = np.asarray(q_pmf, dtype=float)
    _check_rows(q[None, :], "q_pmf")
    if len(input_pmfs) != net.n_nodes:
        raise SchemaError("need one input pmf per node")
    pmfs = []
    for k in range(1, net.n_nodes + 1):
        arr = np.asarray(input_pmfs[k - 1], dtype=float)
        if arr.shape != (q.size, net.x_sizes[k - 1]):
            raise SchemaError(
                f"input pmf for node {k}: expected shape "
                f"{(q.size, net.x_sizes[k - 1])}, got {arr.shape}"
            )
        _check_rows(arr, f"input pmf for node {k}")
        pmfs.append(arr)
    nodes = range(1, net.n_nodes + 1)
    labels = [q_label()] + x_labels(nodes) + y_labels(nodes)
    factors = [_inputs_factor(q, pmfs), channel_factor(net)]
    return JointDistribution(labels, factors=factors)


# Cuts per stacked Cholesky call in ``gauss_cut_rates``.  Bounding the
# batch keeps the stacked temporaries below 100 KB at 16 nodes (12,870
# cuts of size 8), which limits heap growth, while the per-call overhead
# stays a negligible share.
_CUT_BATCH = 256


def gauss_logdet_general(m: np.ndarray) -> float | np.ndarray:
    """log2 det of symmetric positive definite matrices via Cholesky.

    ``m`` is one matrix ``(k, k)``, giving a float, or a stack
    ``(..., k, k)``, giving an array of shape ``m.shape[:-2]``.  The
    symmetry and definiteness checks apply to the whole stack.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise SchemaError(f"need a square matrix or a stack of them, got shape {m.shape}")
    if not np.allclose(m, np.swapaxes(m, -1, -2), rtol=1e-10, atol=1e-12):
        raise SchemaError("matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"matrix is not positive definite: {exc}") from exc
    out = 2.0 * np.log2(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return float(out) if m.ndim == 2 else out


def gauss_cut_rates(net: GaussianNetwork, masks: Sequence[int] | np.ndarray) -> np.ndarray:
    """Log-det flows (1/2) log2 det(I + (P/2) G G^T) of many cuts at once.

    ``masks`` holds one cut bitmask per cut.  ``G`` is the receiver-side
    gain block of a cut: rows are receivers outside the cut, columns
    senders inside it.  P/2 is the SNR after the unit-variance compression
    noise doubles the unit receiver noise; senders still transmit at
    their full power P.

    Cuts are grouped by size.  Each group's gain blocks are gathered with
    integer index arrays and the determinant is taken on the smaller Gram
    side (Sylvester: det(I + a G G^T) = det(I + a G^T G)), one stacked
    Cholesky per batch of at most ``_CUT_BATCH`` cuts.  Returns one flow
    per cut, in the order given.
    """
    n = net.n_nodes
    masks = np.asarray(masks, dtype=np.int64)
    full = (1 << n) - 1
    if np.any((masks <= 0) | (masks >= full)):
        raise SchemaError(f"cut must be a nonempty proper subset of the {n}-node universe")
    sizes = popcounts(masks)
    flows = np.empty(len(masks))
    for s in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == s)
        for lo in range(0, len(members), _CUT_BATCH):
            idx = members[lo : lo + _CUT_BATCH]
            inside = (masks[idx, None] >> np.arange(n)) & 1
            s_idx = np.nonzero(inside)[1].reshape(idx.size, s)
            c_idx = np.nonzero(inside == 0)[1].reshape(idx.size, n - s)
            # h[b] = gains[S, S^c], the transpose of the receiver-side G.
            h = net.gains[s_idx[:, :, None], c_idx[:, None, :]]
            if s < n - s:
                gram = h @ np.swapaxes(h, 1, 2)
            else:
                gram = np.swapaxes(h, 1, 2) @ h
            m = np.eye(gram.shape[-1]) + (net.power / 2.0) * gram
            flows[idx] = 0.5 * gauss_logdet_general(m)
    return flows


def gauss_cut_rate(net: GaussianNetwork, cut: NodeSet) -> float:
    """Log-det flow across one cut: (1/2) log2 det(I + (P/2) G G^T).

    A one-cut call into ``gauss_cut_rates``, which documents ``G`` and
    why the SNR is P/2 (compression noise, not a power split).
    """
    if cut.n_nodes != net.n_nodes:
        raise SchemaError("cut universe does not match network")
    return float(gauss_cut_rates(net, [cut.mask])[0])
