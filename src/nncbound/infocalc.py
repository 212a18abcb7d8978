"""Information quantities over labeled discrete joint distributions.

The bound evaluators all reduce to conditional mutual informations of a
single assembled joint pmf over variables named by role:

* ``Q`` — time-sharing variable,
* ``Xk`` — channel input at node k,
* ``Uk`` — layering (cloud-center) variable at node k,
* ``Yk`` — channel output at node k,
* ``Yhk`` — the compressed description of ``Yk`` forwarded by node k.

A joint is a dense numpy tensor with one axis per label.  Conditional
mutual information is computed from four entropies,
I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), all in bits.

The Gaussian helpers at the bottom compute the log-det rates of cuts for
unit-noise additive networks with a symmetric power limit, batched by cut
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import xlogy

from .errors import EvaluationError, SchemaError
from .netmodel import MAX_STATES, DmNetwork, GaussianNetwork, NodeSet

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


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint pmf with one named axis per variable.

    Entries must be nonnegative and sum to 1 within 1e-10; the total state
    count is capped so a bad configuration fails fast instead of
    exhausting memory.
    """

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise SchemaError("joint distribution labels must be unique")
        if self.probs.ndim != len(labels):
            raise SchemaError(
                f"{len(labels)} labels but tensor has {self.probs.ndim} axes"
            )
        if self.probs.size > MAX_STATES:
            raise SchemaError(
                f"joint state count {self.probs.size} exceeds limit {MAX_STATES}"
            )
        if np.any(self.probs < 0):
            raise SchemaError("joint distribution has negative entries")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise SchemaError(f"joint distribution sums to {total!r}, not 1")
        object.__setattr__(
            self, "_axis", {lab: i for i, lab in enumerate(labels)}
        )

    def axis(self, label: str) -> int:
        try:
            return self._axis[label]  # type: ignore[attr-defined]
        except KeyError:
            raise SchemaError(f"unknown variable label {label!r}") from None

    def card(self, label: str) -> int:
        return int(self.probs.shape[self.axis(label)])

    def marginal(self, labels: Iterable[str]) -> np.ndarray:
        """Marginal pmf over ``labels``, axes in this joint's label order."""
        keep = sorted(self.axis(lab) for lab in labels)
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        return self.probs.sum(axis=drop)


def entropy(joint: JointDistribution, labels: Iterable[str]) -> float:
    """Entropy in bits of the marginal over ``labels`` (0.0 for no labels)."""
    labels = list(labels)
    if not labels:
        return 0.0
    m = joint.marginal(labels)
    return float(-xlogy(m, m).sum() / _LN2)


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


def _spread(arr: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """View of ``arr`` broadcastable over a tensor of rank ``ndim``.

    ``axes[i]`` is the global axis where arr's axis i lives; global axes
    need not be in arr's order.
    """
    order = np.argsort(axes)
    arr = np.transpose(arr, order)
    shape = [1] * ndim
    for pos, size in zip(sorted(axes), arr.shape):
        shape[pos] = size
    return arr.reshape(shape)


def assemble_joint(
    net: DmNetwork, dist: CodingDistribution
) -> JointDistribution:
    """Build the full joint over (Q, [U,] X, Y, Yh) for a code design.

    The joint factorizes as p(q) * prod_k p(inputs_k|q) * channel *
    prod_k p(yh_k | y_k, ., q); this routine multiplies the factors into
    one dense tensor.  Axis order is Q, then per-node U (superposition
    only), X, Y, Yh blocks, nodes ascending within each block.
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
    sizes = [dist.nq]
    if dist.superposition:
        labels += u_labels(nodes)
        sizes += [int(p.shape[1]) for p in dist.input_pmfs]
    labels += x_labels(nodes) + y_labels(nodes) + yhat_labels(nodes)
    sizes += list(net.x_sizes) + list(net.y_sizes) + list(dist.yhat_sizes)

    total = math.prod(sizes)
    if total > MAX_STATES:
        raise SchemaError(f"joint state count {total} exceeds limit {MAX_STATES}")

    ax = {lab: i for i, lab in enumerate(labels)}
    ndim = len(labels)
    probs = np.ones(sizes)
    probs *= _spread(dist.q_pmf, [ax[q_label()]], ndim)
    for k in range(1, n + 1):
        if dist.superposition:
            probs *= _spread(
                dist.input_pmfs[k - 1],
                [ax[q_label()], ax[u_label(k)], ax[x_label(k)]],
                ndim,
            )
            probs *= _spread(
                dist.compression[k - 1],
                [ax[q_label()], ax[y_label(k)], ax[u_label(k)], ax[yhat_label(k)]],
                ndim,
            )
        else:
            probs *= _spread(
                dist.input_pmfs[k - 1],
                [ax[q_label()], ax[x_label(k)]],
                ndim,
            )
            probs *= _spread(
                dist.compression[k - 1],
                [ax[q_label()], ax[y_label(k)], ax[x_label(k)], ax[yhat_label(k)]],
                ndim,
            )
    chan_axes = [ax[x_label(k)] for k in nodes] + [ax[y_label(k)] for k in nodes]
    probs *= _spread(net.channel, chan_axes, ndim)
    return JointDistribution(tuple(labels), probs)


def joint_from_inputs(net: DmNetwork, x_pmf: np.ndarray) -> JointDistribution:
    """Joint over (X^N, Y^N) for an arbitrary — possibly correlated —
    input distribution ``x_pmf`` of shape ``net.x_sizes``."""
    if x_pmf.shape != tuple(net.x_sizes):
        raise SchemaError(
            f"input pmf shape {x_pmf.shape} != network inputs {tuple(net.x_sizes)}"
        )
    _check_rows(x_pmf.reshape(1, -1), "joint input pmf")
    n = net.n_nodes
    nodes = range(1, n + 1)
    labels = tuple(x_labels(nodes) + y_labels(nodes))
    probs = net.channel * _spread(
        x_pmf, list(range(n)), 2 * n
    )
    return JointDistribution(labels, probs)


def joint_with_product_inputs(
    net: DmNetwork, q_pmf: np.ndarray, input_pmfs: Sequence[np.ndarray]
) -> JointDistribution:
    """Joint over (Q, X^N, Y^N) for independent per-node inputs given Q."""
    q = np.asarray(q_pmf, dtype=float)
    _check_rows(q[None, :], "q_pmf")
    if len(input_pmfs) != net.n_nodes:
        raise SchemaError("need one input pmf per node")
    n = net.n_nodes
    nodes = range(1, n + 1)
    labels = tuple([q_label()] + x_labels(nodes) + y_labels(nodes))
    sizes = [q.size] + list(net.x_sizes) + list(net.y_sizes)
    ndim = len(sizes)
    probs = np.ones(sizes)
    probs *= _spread(q, [0], ndim)
    for k in range(1, n + 1):
        arr = np.asarray(input_pmfs[k - 1], dtype=float)
        if arr.shape != (q.size, net.x_sizes[k - 1]):
            raise SchemaError(
                f"input pmf for node {k}: expected shape "
                f"{(q.size, net.x_sizes[k - 1])}, got {arr.shape}"
            )
        _check_rows(arr, f"input pmf for node {k}")
        probs *= _spread(arr, [0, k], ndim)
    chan_axes = list(range(1, 2 * n + 1))
    probs *= _spread(net.channel, chan_axes, ndim)
    return JointDistribution(labels, probs)


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


def gauss_cut_rates(net: GaussianNetwork, cuts: Sequence[NodeSet]) -> np.ndarray:
    """Log-det flows (1/2) log2 det(I + (P/2) G G^T) of many cuts at once.

    ``G`` is the receiver-side gain block of a cut: rows are receivers
    outside the cut, columns senders inside it.  P/2 is the SNR after the
    unit-variance compression noise doubles the unit receiver noise;
    senders still transmit at their full power P.

    Cuts are grouped by size.  Each group's gain blocks are gathered with
    integer index arrays and the determinant is taken on the smaller Gram
    side (Sylvester: det(I + a G G^T) = det(I + a G^T G)), one stacked
    Cholesky per batch of at most ``_CUT_BATCH`` cuts.  Returns one flow
    per cut, in the order given.
    """
    n = net.n_nodes
    groups: dict[int, list[int]] = {}
    for i, cut in enumerate(cuts):
        if cut.n_nodes != n:
            raise SchemaError("cut universe does not match network")
        if not 0 < len(cut) < n:
            raise SchemaError("cut must be a nonempty proper subset of the nodes")
        groups.setdefault(len(cut), []).append(i)
    masks = np.array([cut.mask for cut in cuts], dtype=np.int64)
    flows = np.empty(len(cuts))
    for s, members in groups.items():
        for lo in range(0, len(members), _CUT_BATCH):
            idx = np.array(members[lo : lo + _CUT_BATCH])
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
    return float(gauss_cut_rates(net, [cut])[0])
