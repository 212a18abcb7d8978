"""Closed-form Gaussian bounds, the inner/outer gap certificate, and the
two benchmark topologies.

For unit-noise additive networks with a symmetric power limit P, the
outer bound and the compress-and-forward inner bound differ per cut by an
explicit budget that depends only on the cut sizes — never on the gains
or the power.  ``gap_certificate`` verifies that identity cut by cut.

The two benchmark topologies are evaluated against competing schemes:

* two-way relay (nodes 1 and 2 exchange messages through relay 3, with
  the relay placed a fraction ``d`` of the way from 1 to 2):
  compress-and-forward without binning (``NNC``), amplify-and-forward
  (``AF``), classic compress-and-forward (``CF``);
* interference relay (sources 1, 2; a common relay 3 linked by a rate-R0
  bit pipe to both destinations 4 and 5): two compress-and-forward
  variants (``NNC-T2`` joint-decoding, ``NNC-T3`` private-message
  layering), classic ``CF``, and hash-and-forward ``HF``.

All scheme evaluations share one deterministic scalar maximizer: a
log-spaced grid pass followed by golden-section refinement around the
best grid point, ties resolved toward the smaller parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, SchemaError
from .infocalc import gauss_cut_rate, gauss_cut_rates
from .netmodel import GaussianNetwork, NodeSet, enumerate_cutsets, popcounts

# Not used here: the benchmark's netmodel.max_weighted_sum hook patches
# this module attribute, so the name stays importable from gauss_bounds.
from .netmodel import max_weighted_sum  # noqa: F401

# Gains diverge as the relay reaches an end node; they are capped here and
# the result flagged, so sweeps can include the boundary without overflow.
GAIN_CAP = 1e8

TWRC_SCHEMES = ("NNC", "AF", "CF")
IRC_SCHEMES = ("NNC-T2", "NNC-T3", "CF", "HF")


def c_rate(x: float) -> float:
    """Gaussian point-to-point capacity C(x) = (1/2) log2(1 + x)."""
    if x < 0:
        raise EvaluationError(f"capacity argument must be >= 0, got {x!r}")
    return 0.5 * math.log2(1.0 + x)


# ---------------------------------------------------------------------------
# per-cut closed forms and the gap certificate


def _allowance(s: int, sc: int) -> float:
    """Correlation allowance of the relaxed outer bound: (min(s,sc)/2) log2(2s)."""
    return (min(s, sc) / 2.0) * math.log2(2.0 * s)


def cut_size_budget(cut: NodeSet) -> float:
    """Outer-minus-inner budget of a cut: |S|/2 + (min(|S|,|S^c|)/2) log2(2|S|)."""
    s = len(cut)
    return s / 2.0 + _allowance(s, cut.n_nodes - s)


def gauss_cutset_outer(net: GaussianNetwork, cut: NodeSet) -> float:
    """Cutset outer bound relaxed to a closed form: the log-det flow of
    ``gauss_cut_rate`` plus a correlation allowance of
    (min(|S|,|S^c|)/2) log2(2|S|)."""
    return gauss_cut_rate(net, cut) + _allowance(len(cut), cut.n_nodes - len(cut))


def gauss_nnc_inner(net: GaussianNetwork, cut: NodeSet) -> float:
    """Achievable flow across a cut with unit-variance compression noise:
    the same log-det term minus |S|/2.  Returned raw (may be negative);
    clamping happens when regions are assembled."""
    return gauss_cut_rate(net, cut) - len(cut) / 2.0


def gauss_cut_bounds(
    net: GaussianNetwork, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gauss_cutset_outer``, ``gauss_nnc_inner`` and ``cut_size_budget``
    of every cut mask, as arrays, from one batched log-det per cut.  The
    allowance is read from a table of ``_allowance`` per cut size, so each
    entry is the float the per-cut functions give."""
    n = net.n_nodes
    flows = gauss_cut_rates(net, masks)
    sizes = popcounts(masks)
    allowance = np.array([0.0] + [_allowance(s, n - s) for s in range(1, n)])[sizes]
    return flows + allowance, flows - sizes / 2.0, sizes / 2.0 + allowance


@dataclass(frozen=True, eq=False)
class GapCertificate:
    """Per-cut certificate columns, one entry per eligible cut in
    ascending mask order: the outer/inner difference vs its budget."""

    masks: np.ndarray
    outer: np.ndarray
    inner_raw: np.ndarray
    gap: np.ndarray
    budget: np.ndarray
    ok: np.ndarray

    def __len__(self) -> int:
        return len(self.masks)


def gap_certificate(
    net: GaussianNetwork, multicast: NodeSet | None = None
) -> GapCertificate:
    """Evaluate outer and raw inner values for every eligible cut and
    check the gap against the size-only budget.

    Both values come from one log-det per cut.  The gap uses the raw
    (unclamped) inner value, for which the identity
    ``outer - inner_raw == budget`` holds exactly up to rounding; ``ok``
    flags any cut where the gap exceeds budget + 1e-9 (which should never
    happen).
    """
    cuts = enumerate_cutsets(net.n_nodes, multicast, net.dests)
    if not cuts:
        raise SchemaError("no cut has an eligible destination")
    outer, inner, budget = gauss_cut_bounds(net, cuts.masks)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for floats
        gap = outer - inner
    return GapCertificate(cuts.masks, outer, inner, gap, budget, gap <= budget + 1e-9)


# ---------------------------------------------------------------------------
# deterministic scalar maximization


@dataclass(frozen=True)
class SweepGrid:
    """Log-spaced parameter grid with golden-section refinement.

    ``param`` is a display name only ("sigma2", "alpha", ...).  The grid
    spans [lo, hi] with ``points`` log-spaced samples including both
    endpoints, then ``refine_iters`` golden-section steps shrink the
    bracket around the best sample.
    """

    param: str = "sigma2"
    lo: float = 1e-4
    hi: float = 1e4
    points: int = 400
    refine_iters: int = 60

    def __post_init__(self) -> None:
        if not (0 < self.lo <= self.hi) or not math.isfinite(self.hi):
            raise SchemaError(
                f"grid bounds must satisfy 0 < lo <= hi, got [{self.lo}, {self.hi}]"
            )
        if self.points < 1:
            raise SchemaError("grid needs at least one point")
        if self.refine_iters < 0:
            raise SchemaError("refinement iteration count must be >= 0")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        return np.logspace(
            math.log10(self.lo), math.log10(self.hi), self.points
        )

    def replace_bounds(self, lo: float, hi: float) -> SweepGrid:
        return SweepGrid(self.param, lo, hi, self.points, self.refine_iters)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_maximize(
    f: Callable[[float], float], grid: SweepGrid
) -> tuple[float, float]:
    """Maximize ``f`` over the grid, refining around the best sample.

    ``f`` may return ``-inf`` for infeasible points; NaN is treated the
    same.  Raises :class:`EvaluationError` when no grid point is
    feasible.  Ties break toward the smaller parameter, so a constant
    objective returns the smallest grid point.  The result is never worse
    than the best raw grid sample.
    """

    def safe(x: float) -> float:
        v = f(x)
        return v if not math.isnan(v) else -math.inf

    xs = grid.values()
    vals = [safe(float(x)) for x in xs]
    best_i = 0
    for i, v in enumerate(vals):
        if v > vals[best_i]:
            best_i = i
    if math.isinf(vals[best_i]) and vals[best_i] < 0:
        raise EvaluationError(
            f"objective is infeasible on the whole {grid.param} grid"
        )
    best_x = float(xs[best_i])
    best_v = vals[best_i]

    def consider(x: float, v: float) -> None:
        nonlocal best_x, best_v
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v

    if grid.refine_iters > 0 and len(xs) > 1:
        lo_i = max(best_i - 1, 0)
        hi_i = min(best_i + 1, len(xs) - 1)
        a = math.log(float(xs[lo_i]))
        b = math.log(float(xs[hi_i]))
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc = safe(math.exp(c))
        fd = safe(math.exp(d))
        for _ in range(grid.refine_iters):
            consider(math.exp(c), fc)
            consider(math.exp(d), fd)
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = safe(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = safe(math.exp(d))
        consider(math.exp(c), fc)
        consider(math.exp(d), fd)
    return best_x, best_v


# ---------------------------------------------------------------------------
# two-way relay channel


@dataclass(frozen=True)
class TwrcConfig:
    """Two-way relay geometry on a unit line.

    Nodes 1 and 2 sit a unit distance apart and exchange messages; the
    relay (node 3) sits at fraction ``d`` of the way from node 1.  Gains
    follow a power-law path loss with exponent ``gamma``: the direct gain
    is 1 and each relay gain is distance**(-gamma/2).  Gains are computed
    from (d, gamma) on every access, so they can never go stale; at
    d in {0, 1} the diverging gain is capped at ``GAIN_CAP`` and
    ``degenerate`` reports True.
    """

    d: float
    gamma: float
    power: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.d <= 1.0:
            raise SchemaError(f"relay position d={self.d!r} outside [0, 1]")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise SchemaError(
                f"path-loss exponent gamma must be finite and >= 0, got {self.gamma!r}"
            )
        if not (math.isfinite(self.power) and self.power >= 0):
            raise SchemaError(f"power must be finite and >= 0, got {self.power!r}")

    @staticmethod
    def _path_gain(dist: float, gamma: float) -> float:
        if dist <= 0.0:
            return GAIN_CAP
        return min(dist ** (-gamma / 2.0), GAIN_CAP)

    @property
    def g13(self) -> float:
        """Gain between node 1 and the relay (both directions)."""
        return self._path_gain(self.d, self.gamma)

    @property
    def g23(self) -> float:
        """Gain between node 2 and the relay (both directions)."""
        return self._path_gain(1.0 - self.d, self.gamma)

    @property
    def degenerate(self) -> bool:
        return self.g13 >= GAIN_CAP or self.g23 >= GAIN_CAP

    def network(self) -> GaussianNetwork:
        g13, g23 = self.g13, self.g23
        gains = np.array(
            [
                [0.0, 1.0, g13],
                [1.0, 0.0, g23],
                [g13, g23, 0.0],
            ]
        )
        dests = (NodeSet.of(3, 2), NodeSet.of(3, 1), NodeSet.empty(3))
        return GaussianNetwork(gains, self.power, dests)


@dataclass(frozen=True)
class TwrcRates:
    """Optimized per-direction rates for one scheme at one geometry.

    ``param`` is the compression noise variance for NNC/CF and the
    amplification factor for AF.
    """

    scheme: str
    r1: float
    r2: float
    sum_rate: float
    param: float
    degenerate_gains: bool = False


def _twrc_nnc_pair(cfg: TwrcConfig, s2: float) -> tuple[float, float]:
    p = cfg.power
    charge = c_rate(1.0 / s2)

    def direction(g_near: float, g_far: float) -> float:
        # g_near: this sender to relay; g_far: relay to the destination.
        # One symmetric power limit P applies to both end nodes here.
        return max(
            min(
                c_rate((g_near * g_near * p + (1.0 + s2) * p) / (1.0 + s2)),
                c_rate(p + g_far * g_far * p) - charge,
            ),
            0.0,
        )

    g13, g23 = cfg.g13, cfg.g23
    return direction(g13, g23), direction(g23, g13)


def _twrc_af_pair(cfg: TwrcConfig, alpha: float) -> tuple[float, float]:
    p = cfg.power
    g13, g23 = cfg.g13, cfg.g23
    a2lim = alpha * alpha

    def direction(g_near: float, g_far: float) -> float:
        # g_near: this sender to relay; g_far: relay to the destination.
        den = g_far * g_far * a2lim + 1.0
        a = 1.0 + p * (1.0 + a2lim * g_far * g_far * g_near * g_near) / den
        b = 2.0 * p * alpha * g_far * g_near / den
        return max(0.5 * math.log2((a + math.sqrt(a * a - b * b)) / 2.0), 0.0)

    return direction(g13, g23), direction(g23, g13)


def _twrc_cf(cfg: TwrcConfig) -> tuple[float, float, float]:
    p = cfg.power
    g13, g23 = cfg.g13, cfg.g23

    def description_need(g_near: float) -> float:
        return (1.0 + p) * (1.0 + g_near * g_near * p) - (g_near * p) ** 2

    s2 = max(description_need(g13), description_need(g23)) / (
        min(g23 * g23, g13 * g13) * p
    )

    def direction(g_near: float) -> float:
        # The decoder combines its direct signal with the relay's
        # description at the smallest feasible quantizer variance.
        return max(c_rate((g_near * g_near * p + (1.0 + s2) * p) / (1.0 + s2)), 0.0)

    return direction(g13), direction(g23), s2


def twrc_rates(
    cfg: TwrcConfig, scheme: str, grid: SweepGrid | None = None
) -> TwrcRates:
    """Best sum rate of one two-way relay scheme at one geometry.

    NNC sweeps the compression noise variance; AF sweeps the
    amplification factor over (0, alpha_max] with the power-feasible
    boundary included exactly; CF has a closed-form optimal variance (its
    caps only degrade as the variance grows), so nothing is swept.
    """
    if scheme not in TWRC_SCHEMES:
        raise SchemaError(f"unknown scheme {scheme!r}; pick one of {TWRC_SCHEMES}")
    if grid is None:
        grid = SweepGrid()
    flag = cfg.degenerate
    if cfg.power == 0.0:
        return TwrcRates(scheme, 0.0, 0.0, 0.0, math.nan, flag)

    if scheme == "CF":
        r1, r2, s2 = _twrc_cf(cfg)
        return TwrcRates(scheme, r1, r2, r1 + r2, s2, flag)

    if scheme == "AF":
        p = cfg.power
        alpha_max = math.sqrt(p / (cfg.g13**2 * p + cfg.g23**2 * p + 1.0))
        pair = _twrc_af_pair
        grid = grid.replace_bounds(alpha_max * 1e-6, alpha_max)
    else:
        pair = _twrc_nnc_pair
    param, _ = scalar_maximize(lambda x: sum(pair(cfg, x)), grid)
    r1, r2 = pair(cfg, param)
    return TwrcRates(scheme, r1, r2, r1 + r2, param, flag)


# ---------------------------------------------------------------------------
# interference relay channel


@dataclass(frozen=True)
class IrcConfig:
    """Interference relay topology with a shared digital relay link.

    Sources 1 and 2 reach their destinations 4 and 5 directly and
    through a common relay (node 3); the relay talks to both
    destinations over an error-free broadcast link of rate ``r0`` bits
    per use.  ``g_jk`` is the amplitude gain from sender j to receiver
    k; every antenna sees unit noise and power limit ``power``.
    """

    g13: float
    g23: float
    g14: float
    g24: float
    g15: float
    g25: float
    r0: float
    power: float

    def __post_init__(self) -> None:
        squared = {g: getattr(self, g) for g in ("g13", "g23", "g14", "g24", "g15", "g25")}
        for name, v in squared.items():
            if not (math.isfinite(v) and v >= 0):
                raise SchemaError(f"{name} must be finite and >= 0, got {v!r}")
        if not (math.isfinite(self.r0) and self.r0 >= 0):
            raise SchemaError(f"r0 must be finite and >= 0, got {self.r0!r}")
        if not (math.isfinite(self.power) and self.power >= 0):
            raise SchemaError(f"power must be finite and >= 0, got {self.power!r}")
        # The caps square these and take 2**(2*r0) with float **, which
        # raises OverflowError instead of returning inf.
        squared["g13*g24 - g23*g14"] = self.g13 * self.g24 - self.g23 * self.g14
        squared["g23*g15 - g13*g25"] = self.g23 * self.g15 - self.g13 * self.g25
        for name, v in squared.items():
            if not math.isfinite(v * v):
                raise SchemaError(f"{name} = {v!r} is too large: its square overflows")
        if self.r0 >= 512.0:
            raise SchemaError(f"r0 = {self.r0!r} is too large: 2**(2*r0) overflows a float")


@dataclass(frozen=True)
class IrcRates:
    """Optimized rates for one interference-relay scheme.

    ``r1_cap`` and ``r2_cap`` are the clamped per-user caps at the chosen
    variance; ``sum_rate`` additionally honors any sum constraints.
    ``fallback`` marks the no-feasible-variance escape hatch (the scheme
    degrades to direct transmission and the reported variance is inf).
    """

    scheme: str
    r1_cap: float
    r2_cap: float
    sum_rate: float
    sigma2: float
    fallback: bool = False


def _pair_region_sum(c1: float, c2: float, csum: float = math.inf) -> float:
    """Largest R1 + R2 over 0 <= R1 <= c1, 0 <= R2 <= c2, R1 + R2 <= csum,
    with every cap clamped at zero first: min(c1+ + c2+, csum+)."""
    return min(max(c1, 0.0) + max(c2, 0.0), max(csum, 0.0))


def _swap(cfg: IrcConfig) -> IrcConfig:
    """The same topology with users 1 <-> 2 and destinations 4 <-> 5
    exchanged, so a formula written for user 1 gives user 2's value."""
    return IrcConfig(
        g13=cfg.g23, g23=cfg.g13, g14=cfg.g25, g24=cfg.g15, g15=cfg.g24,
        g25=cfg.g14, r0=cfg.r0, power=cfg.power,
    )


def _irc_t2_caps(cfg: IrcConfig, s2: float) -> tuple[float, float]:
    """User 1's cap and the tighter of the two sum caps at destination 4."""
    p = cfg.power
    g13, g23, g14, g24 = cfg.g13, cfg.g23, cfg.g14, cfg.g24
    digital = cfg.r0 - c_rate(1.0 / s2)
    cross = (g13 * g24 - g23 * g14) ** 2
    c1 = min(
        c_rate(g14 * g14 * p) + digital,
        c_rate((g13 * g13 + (1.0 + s2) * g14 * g14) * p / (1.0 + s2)),
    )
    csum = min(
        c_rate((g14 * g14 + g24 * g24) * p) + digital,
        c_rate(
            ((g13 * g13 + g23 * g23) * p
             + (1.0 + s2) * (g14 * g14 + g24 * g24) * p
             + cross * p * p) / (1.0 + s2)
        ),
    )
    return c1, csum


def _irc_hf_cap(cfg: IrcConfig, s2: float) -> float:
    """User 1's hash-and-forward cap: direct SNR with user 2 as noise, plus
    the relay link minus the charge for describing the relay output."""
    p = cfg.power
    den = cfg.g24**2 * p + 1.0
    return (
        c_rate(cfg.g14**2 * p / den)
        + cfg.r0
        - c_rate(((cfg.g23**2 + cfg.g24**2) * p + 1.0) / (den * s2))
    )


def _irc_cf_cap(cfg: IrcConfig, s2: float) -> float:
    """User 1's compress-and-forward cap: destination 4 combines its own
    output with the relay's description at quantizer variance s2."""
    p = cfg.power
    cross = (cfg.g23 * cfg.g14 - cfg.g24 * cfg.g13) ** 2
    num = (cfg.g13**2 + (1.0 + s2) * cfg.g14**2) * p + cross * p * p
    den = 1.0 + s2 + (cfg.g23**2 + (1.0 + s2) * cfg.g24**2) * p
    return c_rate(num / den)


def _irc_quantization_threshold(cfg: IrcConfig) -> float:
    """Destination 4's variance threshold: classic CF needs sigma2 at or
    above it (at both destinations), HF at or below it; inf when r0 = 0."""
    p = cfg.power
    scale = 2.0 ** (2.0 * cfg.r0) - 1.0
    if scale <= 0.0:
        return math.inf
    a = (cfg.g13**2 + cfg.g14**2) * p + (cfg.g23**2 + cfg.g24**2) * p + 1.0
    q = ((cfg.g13 * cfg.g24 - cfg.g23 * cfg.g14) ** 2 * p * p + a) / (
        cfg.g14**2 * p + cfg.g24**2 * p + 1.0
    )
    return q / scale


def irc_rates(
    cfg: IrcConfig, scheme: str, grid: SweepGrid | None = None
) -> IrcRates:
    """Best sum rate of one interference-relay scheme.

    Every scheme optimizes a single compression/quantization variance.
    Each cap is written for user 1 and evaluated on :func:`_swap` for
    user 2.  CF is feasible only above a variance threshold and HF only
    below one; their sweep ranges are adjusted so the binding boundary is
    an exact grid endpoint.  With r0 = 0 classic CF has no feasible
    variance at all and falls back to direct transmission (flagged).
    """
    if scheme not in IRC_SCHEMES:
        raise SchemaError(f"unknown scheme {scheme!r}; pick one of {IRC_SCHEMES}")
    if grid is None:
        grid = SweepGrid()
    if cfg.power == 0.0:
        return IrcRates(scheme, 0.0, 0.0, 0.0, math.nan)
    other = _swap(cfg)

    if scheme == "NNC-T2":
        def caps(s2: float) -> tuple[float, ...]:
            c1, sum4 = _irc_t2_caps(cfg, s2)
            c2, sum5 = _irc_t2_caps(other, s2)
            return c1, c2, min(sum4, sum5)
    elif scheme == "NNC-T3":
        def caps(s2: float) -> tuple[float, ...]:
            return (
                min(_irc_hf_cap(cfg, s2), _irc_cf_cap(cfg, s2)),
                min(_irc_hf_cap(other, s2), _irc_cf_cap(other, s2)),
            )
    else:
        cap = _irc_cf_cap if scheme == "CF" else _irc_hf_cap

        def caps(s2: float) -> tuple[float, ...]:
            return cap(cfg, s2), cap(other, s2)

        thresholds = (
            _irc_quantization_threshold(cfg),
            _irc_quantization_threshold(other),
        )
        if scheme == "CF":
            s2_min = max(thresholds)
            if math.isinf(s2_min):
                # No quantization satisfies the digital link budget; the
                # scheme reduces to direct transmission (variance -> inf).
                c1, c2 = (
                    c_rate(c.g14**2 * c.power / (c.g24**2 * c.power + 1.0))
                    for c in (cfg, other)
                )
                return IrcRates(
                    scheme, c1, c2, c1 + c2, math.inf, fallback=True
                )
            grid = grid.replace_bounds(s2_min, max(grid.hi, 10.0 * s2_min))
        else:
            # HF caps grow with the variance, so the threshold (included
            # exactly) is where to look.
            s2_max = min(thresholds)
            if not math.isinf(s2_max):
                grid = grid.replace_bounds(min(grid.lo, s2_max / 100.0), s2_max)

    s2, best = scalar_maximize(lambda s: _pair_region_sum(*caps(s)), grid)
    c1, c2, *_ = caps(s2)
    return IrcRates(scheme, max(c1, 0.0), max(c2, 0.0), best, s2)


def db_to_power(db: float) -> float:
    """Convert a dB power figure to linear scale: P = 10**(dB/10)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise SchemaError(
            f"power of {db!r} dB overflows a float (10**(dB/10) > 1.8e308)"
        ) from None
