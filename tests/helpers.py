"""Shared builders and independent oracles for the test suite.

Everything here deliberately avoids the library's own computation paths:
channels and designs are built with plain numpy, and the oracles
(direct-sum conditional MI, GF(2) rank) use different algorithms than the
code under test.
"""

from __future__ import annotations

import math

import numpy as np

from nncbound.infocalc import CodingDistribution, JointDistribution
from nncbound.netmodel import DmNetwork, NodeSet


def rand_superposition_design(
    rng, net: DmNetwork, u_sizes, nq: int = 1, yhat_sizes=None
) -> CodingDistribution:
    """Random layered code design: joint p(u, x | q) rows, p(yh | y, u, q)."""
    if yhat_sizes is None:
        yhat_sizes = net.y_sizes
    q = rand_rows(rng, (nq,)) if nq > 1 else np.ones(1)
    inputs = tuple(
        rand_rows(rng, (nq, u * x)).reshape(nq, u, x)
        for u, x in zip(u_sizes, net.x_sizes)
    )
    comps = tuple(
        rand_rows(rng, (nq, yk, u, yh))
        for u, yk, yh in zip(u_sizes, net.y_sizes, yhat_sizes)
    )
    return CodingDistribution(q, inputs, comps, superposition=True)


# ---------------------------------------------------------------------------
# dense joints by explicit broadcasting (the library never forms these)


def _placed(arr: np.ndarray, arr_labels, labels) -> np.ndarray:
    """``arr`` with its axes moved to their slots among ``labels`` and
    size-1 axes inserted for the labels it lacks."""
    slots = [labels.index(lab) for lab in arr_labels]
    order = sorted(range(len(slots)), key=lambda i: slots[i])
    shape = [1] * len(labels)
    for i in order:
        shape[slots[i]] = arr.shape[i]
    return np.transpose(arr, order).reshape(shape)


def _dense(labels, parts) -> JointDistribution:
    probs = np.ones(())
    for arr, arr_labels in parts:
        probs = probs * _placed(np.asarray(arr, dtype=float), arr_labels, labels)
    return JointDistribution(tuple(labels), probs)


def dense_assemble_joint(net: DmNetwork, dist: CodingDistribution) -> JointDistribution:
    """The joint of a code design as one tensor: every factor broadcast
    to the full label set and multiplied in, one at a time."""
    n = net.n_nodes
    nodes = range(1, n + 1)
    xs = [f"X{k}" for k in nodes]
    ys = [f"Y{k}" for k in nodes]
    us = [f"U{k}" for k in nodes] if dist.superposition else []
    labels = ["Q"] + us + xs + ys + [f"Yh{k}" for k in nodes]
    parts = [(dist.q_pmf, ["Q"]), (net.channel, xs + ys)]
    for k in nodes:
        mid = f"U{k}" if dist.superposition else f"X{k}"
        inputs = ["Q", mid, f"X{k}"] if dist.superposition else ["Q", f"X{k}"]
        parts.append((dist.input_pmfs[k - 1], inputs))
        parts.append((dist.compression[k - 1], ["Q", f"Y{k}", mid, f"Yh{k}"]))
    return _dense(labels, parts)


def dense_joint_from_inputs(net: DmNetwork, x_pmf, channel=None) -> JointDistribution:
    """Dense (X^N, Y^N) joint for one joint input pmf; ``channel`` is
    accepted for signature parity and ignored."""
    nodes = range(1, net.n_nodes + 1)
    xs = [f"X{k}" for k in nodes]
    ys = [f"Y{k}" for k in nodes]
    return _dense(xs + ys, [(x_pmf, xs), (net.channel, xs + ys)])


def dense_joint_with_product_inputs(net: DmNetwork, q_pmf, input_pmfs) -> JointDistribution:
    """Dense (Q, X^N, Y^N) joint for product inputs given Q."""
    nodes = range(1, net.n_nodes + 1)
    xs = [f"X{k}" for k in nodes]
    ys = [f"Y{k}" for k in nodes]
    parts = [(q_pmf, ["Q"]), (net.channel, xs + ys)]
    parts += [(p, ["Q", x]) for p, x in zip(input_pmfs, xs)]
    return _dense(["Q"] + xs + ys, parts)


def rand_channel(rng: np.random.Generator, x_sizes, y_sizes) -> np.ndarray:
    """Random strictly-positive channel tensor, normalized over all output
    axes jointly (one row per input combination)."""
    shape = tuple(x_sizes) + tuple(y_sizes)
    a = rng.random(shape) + 0.05
    y_axes = tuple(range(len(x_sizes), len(shape)))
    return a / a.sum(axis=y_axes, keepdims=True)


def rand_dm_network(rng, x_sizes, y_sizes, dests) -> DmNetwork:
    x_sizes = tuple(x_sizes)
    y_sizes = tuple(y_sizes)
    return DmNetwork(x_sizes, y_sizes, rand_channel(rng, x_sizes, y_sizes), dests)


def rand_rows(rng: np.random.Generator, shape) -> np.ndarray:
    """Random stochastic array: the last axis sums to 1."""
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=-1, keepdims=True)


def rand_design(
    rng, net: DmNetwork, nq: int = 1, yhat_sizes=None
) -> CodingDistribution:
    """Random plain code design for ``net``."""
    if yhat_sizes is None:
        yhat_sizes = net.y_sizes
    q = rand_rows(rng, (nq,)) if nq > 1 else np.ones(1)
    inputs = tuple(rand_rows(rng, (nq, sz)) for sz in net.x_sizes)
    comps = tuple(
        rand_rows(rng, (nq, yk, xk, yh))
        for xk, yk, yh in zip(net.x_sizes, net.y_sizes, yhat_sizes)
    )
    return CodingDistribution(q, inputs, comps)


def dests_tuple(n: int, *node_lists) -> tuple[NodeSet, ...]:
    """Destination sets from per-node lists: dests_tuple(3, [3], [], [])."""
    assert len(node_lists) == n
    return tuple(NodeSet.from_nodes(n, nodes) for nodes in node_lists)


def cmi_oracle(joint: JointDistribution, a, b, c=()) -> float:
    """I(A;B|C) by direct summation of p log p(abc)p(c)/(p(ac)p(bc)).

    Independent of the four-entropy identity used by the library.
    """
    labs = list(joint.labels)
    probs = joint.probs

    def marg(groups):
        keep = sorted(labs.index(l) for grp in groups for l in grp)
        drop = tuple(i for i in range(probs.ndim) if i not in keep)
        return probs.sum(axis=drop), keep

    pabc, k_abc = marg([a, b, c])
    pac, k_ac = marg([a, c])
    pbc, k_bc = marg([b, c])
    pc, k_c = marg([c])
    total = 0.0
    for idx in np.ndindex(*pabc.shape):
        p = float(pabc[idx])
        if p <= 0.0:
            continue
        pos = dict(zip(k_abc, idx))
        num = p * (float(pc[tuple(pos[i] for i in k_c)]) if k_c else 1.0)
        den = float(pac[tuple(pos[i] for i in k_ac)]) * float(
            pbc[tuple(pos[i] for i in k_bc)]
        )
        total += p * math.log2(num / den)
    return total


def entropy_oracle(joint: JointDistribution, labels) -> float:
    """Plain -sum p log2 p over the marginal, skipping zeros explicitly."""
    keep = sorted(joint.axis(l) for l in labels)
    drop = tuple(i for i in range(joint.probs.ndim) if i not in keep)
    m = joint.probs.sum(axis=drop).ravel()
    m = m[m > 0]
    return float(-(m * np.log2(m)).sum())


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination on bit rows."""
    m = (np.asarray(matrix) % 2).astype(np.int64)
    rows = [int("".join(str(b) for b in row), 2) if row.size else 0 for row in m]
    rank = 0
    for col in range(m.shape[1] - 1, -1, -1) if m.size else []:
        bit = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
