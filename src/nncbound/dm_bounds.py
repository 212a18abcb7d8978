"""Bound evaluators for discrete memoryless networks.

Three families live here:

* Inner bounds achieved by compress-and-forward relaying without binning
  (``nnc_multicast_bound``, ``nnc_theorem2_bound``, ``nnc_theorem3_bound``)
  plus the classic single-relay two-term form (``relay_cf_emz``) and the
  layered-compression extension for a single source
  (``cf_extension_bound``).
* The cutset outer bound (``cutset_outer_bound``).
* Exact special-case families where inner and outer bounds meet and the
  region has a closed form: noiseless graphs, erasure broadcast, and
  deterministic networks (``noiseless_region``, ``erasure_region``,
  ``deterministic_region``), each with a faithful discrete-channel
  materialization for cross-checking.

All bound values are in bits per channel use.  Raw constraint values may
be negative (the compression penalty can exceed the flow term); reports
carry both raw and clamped values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EvaluationError, SchemaError
from .infocalc import (
    CodingDistribution,
    EntropyCache,
    assemble_joint,
    channel_factor,
    joint_from_inputs,
    joint_with_product_inputs,
    q_label,
    u_labels,
    uniform_inputs,
    x_label,
    x_labels,
    y_label,
    y_labels,
    yhat_label,
    yhat_labels,
)
from .netmodel import (
    MAX_STATES,
    CutsetEntry,
    CutsetReport,
    DmNetwork,
    NodeSet,
    RateRegion,
    enumerate_cutsets,
    subsets_between,
)

# Slack allowed when deciding feasibility of the layered-compression
# constraint system; pure floating-point noise, not a modeling knob.
FEASIBILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# special-case network descriptions


@dataclass(frozen=True)
class NoiselessLink:
    """A point-to-point error-free link carrying ``capacity`` bits/use."""

    sender: int
    receiver: int
    capacity: float

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise SchemaError("self-loop links are not allowed")
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise SchemaError(
                f"link capacity must be finite and > 0, got {self.capacity!r}"
            )


@dataclass(frozen=True)
class NoiselessNetwork:
    """Directed graph of error-free links (parallel links allowed)."""

    n_nodes: int
    links: tuple[NoiselessLink, ...]
    dests: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        for l in self.links:
            if not (1 <= l.sender <= self.n_nodes and 1 <= l.receiver <= self.n_nodes):
                raise SchemaError(
                    f"link {l.sender}->{l.receiver} outside 1..{self.n_nodes}"
                )
        if len(self.dests) != self.n_nodes:
            raise SchemaError("need one destination set per node")

    def to_dm(self) -> DmNetwork:
        """Materialize as a discrete channel.

        Each link becomes an independent symbol alphabet of size
        2^capacity (capacities must be integers for this); a node's input
        is the tuple of symbols on its outgoing links and a node's output
        is the tuple on its incoming links, both packed mixed-radix with
        the last link in (peer, declaration order) varying fastest.
        """
        n = self.n_nodes
        caps = []
        for l in self.links:
            c = round(l.capacity)
            if abs(l.capacity - c) > 1e-12 or c < 1:
                raise SchemaError(
                    f"link {l.sender}->{l.receiver}: capacity {l.capacity!r} "
                    "must be a positive integer to materialize alphabets"
                )
            caps.append(c)
        idx = range(len(self.links))
        out_links = [
            sorted(
                (i for i in idx if self.links[i].sender == j),
                key=lambda i: (self.links[i].receiver, i),
            )
            for j in range(1, n + 1)
        ]
        in_links = [
            sorted(
                (i for i in idx if self.links[i].receiver == k),
                key=lambda i: (self.links[i].sender, i),
            )
            for k in range(1, n + 1)
        ]
        x_sizes = tuple(
            math.prod(1 << caps[i] for i in out_links[j]) for j in range(n)
        )
        y_sizes = tuple(
            math.prod(1 << caps[i] for i in in_links[k]) for k in range(n)
        )
        if math.prod(x_sizes) * math.prod(y_sizes) > MAX_STATES:
            raise SchemaError("graph too large to materialize as a channel")
        channel = np.zeros(x_sizes + y_sizes)
        for xs in np.ndindex(*x_sizes):
            symbol: dict[int, int] = {}
            for j in range(n):
                v = xs[j]
                for i in reversed(out_links[j]):
                    size = 1 << caps[i]
                    symbol[i] = v % size
                    v //= size
            ys = []
            for k in range(n):
                y = 0
                for i in in_links[k]:
                    y = y * (1 << caps[i]) + symbol[i]
                ys.append(y)
            channel[xs + tuple(ys)] = 1.0
        return DmNetwork(x_sizes, y_sizes, channel, self.dests)


@dataclass(frozen=True)
class ErasureNetwork:
    """Broadcast-erasure network.

    Node j transmits from an alphabet of size ``x_sizes[j-1]``; each
    receiver either sees the symbol or an erasure.  The region formula
    only needs, per sender j and receiver set K, the probability that
    *every* link from j into K is erased simultaneously.  Supply either
    ``link_erasure`` (independent links; the joint probability is the
    product) or an explicit ``all_erased`` table keyed by
    ``(sender, receiver-set mask)`` — correlated erasure patterns are
    accepted as given, without consistency validation.
    """

    x_sizes: tuple[int, ...]
    dests: tuple[NodeSet, ...]
    link_erasure: np.ndarray | None = None
    all_erased: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self) -> None:
        n = len(self.x_sizes)
        if any(s < 1 for s in self.x_sizes):
            raise SchemaError("alphabet sizes must be >= 1")
        if len(self.dests) != n:
            raise SchemaError("need one destination set per node")
        if (self.link_erasure is None) == (self.all_erased is None):
            raise SchemaError("give exactly one of link_erasure= or all_erased=")
        if self.link_erasure is not None:
            e = np.asarray(self.link_erasure, dtype=float)
            if e.shape != (n, n):
                raise SchemaError(f"link_erasure must be {n}x{n}, got {e.shape}")
            if np.any((e < 0) | (e > 1)):
                raise SchemaError("erasure probabilities must lie in [0, 1]")
            object.__setattr__(self, "link_erasure", e)
        else:
            assert self.all_erased is not None
            for (j, mask), p in self.all_erased.items():
                if not 1 <= j <= n or not 0 <= mask < (1 << n):
                    raise SchemaError(f"all_erased key ({j}, {mask}) out of range")
                if not 0 <= p <= 1:
                    raise SchemaError(f"all_erased[{j}, {mask}] = {p!r} not in [0, 1]")

    @property
    def n_nodes(self) -> int:
        return len(self.x_sizes)

    def p_all_erased(self, sender: int, receivers: NodeSet) -> float:
        if self.link_erasure is not None:
            p = 1.0
            for k in receivers:
                p *= float(self.link_erasure[sender - 1, k - 1])
            return p
        assert self.all_erased is not None
        try:
            return float(self.all_erased[(sender, receivers.mask)])
        except KeyError:
            raise SchemaError(
                f"no all-erased probability stored for sender {sender}, "
                f"receiver set {receivers}"
            ) from None


@dataclass(frozen=True)
class DeterministicNetwork:
    """Network whose outputs are functions of the inputs: y_k = g_k(x^N)."""

    x_sizes: tuple[int, ...]
    y_sizes: tuple[int, ...]
    outputs: tuple[np.ndarray, ...]
    dests: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        n = len(self.x_sizes)
        if len(self.y_sizes) != n or len(self.outputs) != n:
            raise SchemaError("x_sizes, y_sizes and outputs must align per node")
        if len(self.dests) != n:
            raise SchemaError("need one destination set per node")
        outs = []
        for k, table in enumerate(self.outputs, start=1):
            arr = np.asarray(table)
            if arr.shape != tuple(self.x_sizes):
                raise SchemaError(
                    f"output table for node {k} has shape {arr.shape}, "
                    f"expected {tuple(self.x_sizes)}"
                )
            if not np.issubdtype(arr.dtype, np.integer):
                raise SchemaError(f"output table for node {k} must be integer")
            if arr.size and (arr.min() < 0 or arr.max() >= self.y_sizes[k - 1]):
                raise SchemaError(
                    f"output table for node {k} has values outside "
                    f"0..{self.y_sizes[k - 1] - 1}"
                )
            outs.append(arr)
        object.__setattr__(self, "outputs", tuple(outs))

    @property
    def n_nodes(self) -> int:
        return len(self.x_sizes)

    def to_dm(self) -> DmNetwork:
        if math.prod(self.x_sizes) * math.prod(self.y_sizes) > MAX_STATES:
            raise SchemaError("network too large to materialize as a channel")
        channel = np.zeros(tuple(self.x_sizes) + tuple(self.y_sizes))
        for xs in np.ndindex(*self.x_sizes):
            ys = tuple(int(self.outputs[k][xs]) for k in range(self.n_nodes))
            channel[xs + ys] = 1.0
        return DmNetwork(tuple(self.x_sizes), tuple(self.y_sizes), channel, self.dests)


# ---------------------------------------------------------------------------
# compress-and-forward inner bounds


def _cmi_at(cache: EntropyCache, a, b, c, bound: str, cut: NodeSet, **where) -> float:
    """``cache.cmi(a, b, c)``; an inconsistent value names the bound, the
    cut and ``where`` (destination, rate set, ...) it came from."""
    try:
        return cache.cmi(a, b, c)
    except EvaluationError as exc:
        at = "".join(f", {k.replace('_', ' ')} {v}" for k, v in where.items())
        raise EvaluationError(f"{bound}: cut {cut} (mask {cut.mask}){at}: {exc}") from exc


def _nnc_report(
    bound: str,
    net: DmNetwork,
    dist: CodingDistribution,
    multicast: NodeSet | None = None,
) -> CutsetReport:
    """Flow-minus-penalty constraint per (cut, destination) pair, with the
    destinations of :func:`enumerate_cutsets`."""
    if dist.superposition:
        raise SchemaError(f"{bound} expects a plain (non-layered) design")
    cache = EntropyCache(assemble_joint(net, dist))
    all_x = x_labels(range(1, net.n_nodes + 1))
    entries = []
    for s, eligible in enumerate_cutsets(net.n_nodes, multicast, net.dests):
        sc = s.complement()
        for d in eligible:
            flow = _cmi_at(
                cache,
                x_labels(s),
                yhat_labels(sc) + [y_label(d)],
                x_labels(sc) + [q_label()],
                bound, s, destination=d,
            )
            penalty = _cmi_at(
                cache,
                y_labels(s),
                yhat_labels(s),
                all_x + yhat_labels(sc) + [y_label(d), q_label()],
                bound, s, destination=d,
            )
            raw = flow - penalty
            entries.append(
                CutsetEntry(s, d, raw, max(raw, 0.0), flow, penalty)
            )
    return CutsetReport(bound, tuple(entries))


def nnc_multicast_bound(
    net: DmNetwork, dist: CodingDistribution, multicast: NodeSet
) -> CutsetReport:
    """Inner bound for a common message set multicast to every node in
    ``multicast``: one flow-minus-penalty constraint per cut and eligible
    destination.

    The flow term measures what the receivers beyond the cut (their
    compressed descriptions, plus the decoder's own channel output) learn
    about the senders inside the cut; the penalty is the rate spent
    describing the in-cut outputs.  ``raw`` may be negative when the
    compression is too fine.
    """
    return _nnc_report("thm1", net, dist, multicast)


def nnc_theorem2_bound(net: DmNetwork, dist: CodingDistribution) -> CutsetReport:
    """Inner bound for general per-node destination sets.

    Identical integrand to :func:`nnc_multicast_bound`, but a cut's
    eligible destinations are the union of the destination sets of the
    nodes inside it (everyone who must decode something that originates
    behind the cut).
    """
    return _nnc_report("thm2", net, dist)


def _sources_for_dest(net: DmNetwork, d: int) -> NodeSet:
    """Nodes whose message destination set includes node d."""
    return NodeSet.from_nodes(
        net.n_nodes, (k for k in range(1, net.n_nodes + 1) if d in net.dests[k - 1])
    )


def nnc_theorem3_bound(net: DmNetwork, dist: CodingDistribution) -> CutsetReport:
    """Layered inner bound: destinations decode only the messages meant
    for them and treat the rest as noise.

    Each node splits its transmission into a common layer U_k (described
    to everyone) and a private remainder.  For every cut S, destination d
    beyond it, and every message group T between S's senders-for-d and
    all senders-for-d (excluding d itself), the report carries one
    constraint on the rate sum of T.  Entries are reported unreduced;
    :func:`nncbound.netmodel.region_from_report` groups them by T.
    """
    if not dist.superposition:
        raise SchemaError("layered bound expects a superposition design")
    joint = assemble_joint(net, dist)
    cache = EntropyCache(joint)
    n = net.n_nodes
    all_nodes = range(1, n + 1)
    entries = []
    for s, eligible in enumerate_cutsets(n, dests=net.dests):
        sc = s.complement()
        for d in eligible:
            senders = _sources_for_dest(net, d)
            lo = s & senders
            hi = senders.remove(d) if d in senders else senders
            for t in subsets_between(lo, hi):
                tc = senders - t
                flow = _cmi_at(
                    cache,
                    x_labels(t) + u_labels(s),
                    yhat_labels(sc) + [y_label(d)],
                    x_labels(tc) + u_labels(sc) + [q_label()],
                    "thm3", s, destination=d, rate_set=t,
                )
                penalty = _cmi_at(
                    cache,
                    y_labels(s),
                    yhat_labels(s),
                    x_labels(senders)
                    + u_labels(all_nodes)
                    + yhat_labels(sc)
                    + [y_label(d), q_label()],
                    "thm3", s, destination=d, rate_set=t,
                )
                raw = flow - penalty
                entries.append(
                    CutsetEntry(s, d, raw, max(raw, 0.0), flow, penalty, rate_set=t)
                )
    return CutsetReport("thm3", tuple(entries))


def relay_cf_emz(net: DmNetwork, dist: CodingDistribution) -> float:
    """Classic three-node compress-and-forward rate (two-term min).

    Node 1 is the source, node 2 the relay, node 3 the destination.  The
    first term is the rate to a decoder that sees the relay's compressed
    output alongside its own; the second charges the relay's description
    rate against the combined flow into the destination.  Evaluated
    directly from the joint — an independent code path from the general
    per-cut machinery, which it matches when the relay carries no
    message and the bystander variables are degenerate.
    """
    if net.n_nodes != 3:
        raise SchemaError("this form is specific to 3-node relay channels")
    if dist.superposition:
        raise SchemaError("expects a plain (non-layered) design")
    joint = assemble_joint(net, dist)
    cache = EntropyCache(joint)
    q = [q_label()]
    t1 = cache.cmi([x_label(1)], [yhat_label(2), y_label(3)], [x_label(2)] + q)
    t2 = cache.cmi([x_label(1), x_label(2)], [y_label(3)], q) - cache.cmi(
        [y_label(2)],
        [yhat_label(2)],
        [x_label(1), x_label(2), y_label(3)] + q,
    )
    return min(t1, t2)


# ---------------------------------------------------------------------------
# cutset outer bound


def cutset_outer_bound(
    net: DmNetwork,
    input_pmfs: np.ndarray | Sequence[np.ndarray],
    multicast: NodeSet | None = None,
) -> CutsetReport:
    """Cutset outer bound, the flow each cut could support at best.

    ``input_pmfs`` is one joint input distribution over all senders
    (shape = ``net.x_sizes``; correlation allowed) or a finite family of
    them, in which case each cut takes the best value over the family.
    Destination eligibility follows ``multicast`` if given, else the
    network's per-node destination sets.
    """
    if isinstance(input_pmfs, np.ndarray):
        family = [input_pmfs]
    else:
        family = list(input_pmfs)
    if not family:
        raise SchemaError("need at least one input distribution")
    cuts = enumerate_cutsets(net.n_nodes, multicast, net.dests)

    # One channel factor for the whole family, so its partial reductions
    # are computed once per call and freed when the call returns.
    channel = channel_factor(net)
    best: dict[int, float] = {}
    for i, pmf in enumerate(family):
        cache = EntropyCache(joint_from_inputs(net, pmf, channel))
        for s, eligible in cuts:
            sc = s.complement()
            val = _cmi_at(
                cache, x_labels(s), y_labels(sc), x_labels(sc),
                "cutset", s, destinations=eligible, input=i,
            )
            if s.mask not in best or val > best[s.mask]:
                best[s.mask] = val
    entries = []
    for s, eligible in cuts:
        val = best[s.mask]
        for d in eligible:
            entries.append(CutsetEntry(s, d, val, max(val, 0.0), val, 0.0))
    return CutsetReport("cutset", tuple(entries))


# ---------------------------------------------------------------------------
# layered compression for a single source


@dataclass(frozen=True)
class CfExtensionConstraint:
    """One decodability condition at destination d for relay group T."""

    group: NodeSet
    dest: int
    description_cost: float
    flow: float

    @property
    def slack(self) -> float:
        return self.flow - self.description_cost

    @property
    def ok(self) -> bool:
        return self.slack >= -FEASIBILITY_TOL


@dataclass(frozen=True)
class CfExtensionResult:
    """Feasibility verdict and the rate the scheme would deliver.

    ``rate`` is meaningful only when ``feasible``; it is reported anyway
    so near-miss designs can be inspected alongside their violated
    constraints.
    """

    feasible: bool
    rate: float
    constraints: tuple[CfExtensionConstraint, ...]


def cf_extension_bound(net: DmNetwork, dist: CodingDistribution) -> CfExtensionResult:
    """Single-source rate of compress-and-forward where every relay's
    description must be decoded exactly (no implicit joint decoding).

    Node 1 is the unique source; all other nodes are relays, some of
    which are destinations (node 1's destination set).  For every relay
    group T and destination d the cost of recovering the group's
    descriptions must fit in the flow the group can push to d; if all
    such checks pass, the delivered rate is the worst destination's view
    of the source.
    """
    n = net.n_nodes
    if n < 2:
        raise SchemaError("need a source plus at least one more node")
    if dist.superposition:
        raise SchemaError("expects a plain (non-layered) design")
    dest_set = net.dests[0]
    if not dest_set:
        raise SchemaError("node 1 must have a nonempty destination set")
    if 1 in dest_set:
        raise SchemaError("node 1 cannot be its own destination here")
    for k in range(2, n + 1):
        if net.dests[k - 1]:
            raise SchemaError("only node 1 may carry a message for this bound")

    joint = assemble_joint(net, dist)
    cache = EntropyCache(joint)
    relays = NodeSet.full(n).remove(1)
    relay_x = x_labels(relays)
    q = [q_label()]

    rows = []
    for d in dest_set:
        for t in subsets_between(NodeSet.empty(n), relays):
            if not t:
                continue
            tc_rel = relays - t
            # The decoder's own output is part of the conditioning; when
            # d sits inside the group, drop the duplicate label (the
            # identity I(A;B|C) = I(A\C;B|C) keeps the value unchanged).
            seen = t.remove(d) if d in t else t
            cost = cache.cmi(
                y_labels(seen),
                yhat_labels(t),
                relay_x + yhat_labels(tc_rel) + [y_label(d)] + q,
            )
            for k in t:
                others = [x_label(m) for m in relays if m != k]
                cost += cache.cmi(others, [yhat_label(k)], [x_label(k)] + q)
            known = tc_rel.add(d)
            flow = cache.cmi(
                x_labels(t - known),
                [y_label(d)],
                x_labels(known) + q,
            )
            rows.append(CfExtensionConstraint(t, d, cost, flow))

    feasible = all(r.ok for r in rows)
    rate = min(
        cache.cmi(
            [x_label(1)],
            yhat_labels(relays) + [y_label(d)],
            relay_x + q,
        )
        for d in dest_set
    )
    return CfExtensionResult(feasible, rate, tuple(rows))


# ---------------------------------------------------------------------------
# exact special-case regions


def _cut_region(
    net: NoiselessNetwork | ErasureNetwork | DeterministicNetwork,
    multicast: NodeSet | None,
    value: Callable[[NodeSet], float],
) -> RateRegion:
    """One constraint ``value(S)`` per cut S with an eligible destination."""
    cuts = enumerate_cutsets(net.n_nodes, multicast, net.dests)
    if not cuts:
        raise SchemaError("no cut has an eligible destination")
    return RateRegion(net.n_nodes, {s: value(s) for s, _ in cuts})


def noiseless_region(
    net: NoiselessNetwork, multicast: NodeSet | None = None
) -> RateRegion:
    """Exact region of a noiseless graph: each cut supports exactly the
    total capacity of its forward-crossing links."""
    return _cut_region(net, multicast, lambda s: float(sum(
        l.capacity for l in net.links if l.sender in s and l.receiver not in s
    )))


def erasure_region(
    net: ErasureNetwork, multicast: NodeSet | None = None
) -> RateRegion:
    """Exact region under broadcast erasure: each in-cut sender counts at
    full rate whenever at least one receiver beyond the cut sees it."""

    def value(s: NodeSet) -> float:
        sc = s.complement()
        return sum(
            math.log2(net.x_sizes[j - 1]) * (1.0 - net.p_all_erased(j, sc)) for j in s
        )

    return _cut_region(net, multicast, value)


def deterministic_region(
    net: DeterministicNetwork,
    q_pmf: np.ndarray | None = None,
    input_pmfs: Sequence[np.ndarray] | None = None,
    multicast: NodeSet | None = None,
) -> RateRegion:
    """Region of a deterministic network for a given (time-shared) product
    input: each cut supports the conditional output entropy beyond it.

    Defaults to uniform independent inputs with no time sharing.
    """
    if q_pmf is None:
        q_pmf = np.ones(1)
    if input_pmfs is None:
        input_pmfs = uniform_inputs(net.x_sizes, int(np.asarray(q_pmf).size))
    dm = net.to_dm()
    joint = joint_with_product_inputs(dm, q_pmf, input_pmfs)
    cache = EntropyCache(joint)
    q = [q_label()]

    def value(s: NodeSet) -> float:
        sc = s.complement()
        cond = x_labels(sc) + q
        return cache.entropy(y_labels(sc) + cond) - cache.entropy(cond)

    return _cut_region(net, multicast, value)
