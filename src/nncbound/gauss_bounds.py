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

Each scheme formula is one numpy expression over (sweep rows x points),
and every sweep row is maximized in lockstep by one array maximizer,
``scalar_maximize``: a per-row log-spaced grid pass, then golden-section
refinement, ties resolved toward the smaller parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # numpy.typing costs about 1% of `import nncbound`
    from numpy.typing import ArrayLike

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
    return float(_c(x))


def _c(x: ArrayLike) -> np.ndarray:
    """C(x) elementwise and unchecked: the array formulas' arguments are >= 0."""
    return 0.5 * np.log2(1.0 + x)


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
# lockstep maximization over sweep rows


@dataclass(frozen=True)
class SweepGrid:
    """Log-spaced parameter grid with golden-section refinement.

    ``param`` is a display name only ("sigma2", "alpha", ...).  The grid
    spans [lo, hi] with ``points`` log-spaced samples including both
    endpoints, then ``refine_iters`` golden-section steps shrink the
    bracket around the best sample.  :func:`scalar_maximize` takes the
    sizes from here and [lo, hi] per sweep row.
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

    def values(self, lo: ArrayLike | None = None, hi: ArrayLike | None = None) -> np.ndarray:
        """Samples from lo to hi (the grid's own bounds by default); with
        (rows,) arrays of bounds, one row of samples per bound pair."""
        lo = np.asarray(self.lo if lo is None else lo, dtype=float)
        if self.points == 1:
            return lo[..., None]
        hi = self.hi if hi is None else hi
        return np.logspace(np.log10(lo), np.log10(hi), self.points, axis=-1)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_maximize(
    f: Callable[[np.ndarray], np.ndarray], grid: SweepGrid, lo: ArrayLike, hi: ArrayLike,
    active: ArrayLike = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``f`` over one parameter on every sweep row in lockstep.

    ``f`` maps (rows, k) parameters to (rows, k) values, each row from its
    own inputs; ``-inf`` and NaN mark infeasible points.  Row i samples
    [lo[i], hi[i]] at ``grid.points`` log-spaced points, then refines
    around its best sample.  A row's result is the largest value seen,
    ties toward the smaller parameter (a constant objective returns lo).
    Rows outside ``active`` return NaN.  Raises :class:`EvaluationError`
    naming the first active row with no feasible grid point.
    """
    lo, hi, active = np.broadcast_arrays(np.atleast_1d(lo), hi, np.asarray(active, dtype=bool))
    lo, hi = np.where(active, lo, 1.0), np.where(active, hi, 1.0)
    bad = ~((0.0 < lo) & (lo <= hi) & np.isfinite(hi))
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaError(f"row {i} grid bounds need 0 < lo <= hi, got [{lo[i]}, {hi[i]}]")

    def feasible(x: np.ndarray) -> np.ndarray:
        return np.fmax(f(x), -np.inf)  # NaN -> -inf

    rows = np.arange(len(lo))
    with np.errstate(all="ignore"):
        xs = grid.values(lo, hi)
        vals = feasible(xs)
        best = np.argmax(vals, axis=1)
        seen = [(xs[rows, best], vals[rows, best])]
        dead = active & (seen[0][1] == -np.inf)
        if dead.any():
            i = int(np.argmax(dead))
            raise EvaluationError(f"row {i}: no feasible point on the whole {grid.param} grid")
        if grid.refine_iters > 0 and grid.points > 1:
            a = np.log(xs[rows, np.maximum(best - 1, 0)])
            b = np.log(xs[rows, np.minimum(best + 1, grid.points - 1)])
            step = _INV_PHI * (b - a)
            c, d = b - step, a + step
            x_cd = np.exp(np.stack([c, d], axis=1))
            fc, fd = feasible(x_cd).T
            seen += [(x_cd[:, 0], fc), (x_cd[:, 1], fd)]
            for _ in range(grid.refine_iters):
                # Keep [a, d] where c is at least as good, else [c, b]; the
                # kept interior point stays and one new point is evaluated.
                left = fc >= fd
                a, b = np.where(left, a, c), np.where(left, d, b)
                step = _INV_PHI * (b - a)
                new = np.where(left, b - step, a + step)
                x_new = np.exp(new)
                f_new = feasible(x_new[:, None])[:, 0]
                seen.append((x_new, f_new))
                c, d = np.where(left, new, d), np.where(left, c, new)
                fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        # "Largest value, then smallest parameter" does not depend on the
        # order the points were evaluated in, so one reduction suffices.
        xs, vals = (np.stack(z, axis=1) for z in zip(*seen))
        best_v = vals.max(axis=1)
        best_x = np.where(vals == best_v[:, None], xs, np.inf).min(axis=1)
    return np.where(active, best_x, np.nan), np.where(active, best_v, np.nan)


def _columns(rows: Sequence) -> np.ndarray:
    """Per-row tuples of floats, shape (..., fields), as (fields, ..., 1) columns."""
    return np.moveaxis(np.array(rows, dtype=float), -1, 0)[..., None]


# ---------------------------------------------------------------------------
# two-way relay channel


@dataclass(frozen=True)
class TwrcConfig:
    """Two-way relay geometry on a unit line.

    Nodes 1 and 2 sit a unit distance apart and exchange messages; the
    relay (node 3) sits at fraction ``d`` of the way from node 1.  Gains
    follow a power-law path loss with exponent ``gamma``: the direct gain
    is 1 and each relay gain is distance**(-gamma/2).  Gains are computed
    from (d, gamma) on every access, so they can never go stale; a gain
    that reaches ``GAIN_CAP`` (at d in {0, 1}, or overflowing at a large
    gamma) is capped there and ``degenerate`` reports True.
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
        try:
            return min(dist ** (-gamma / 2.0), GAIN_CAP)
        except OverflowError:  # float ** raises where it would give inf
            return GAIN_CAP

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
        gains = np.array([[0.0, 1.0, g13], [1.0, 0.0, g23], [g13, g23, 0.0]])
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


# Both directions are evaluated at once: ``near`` stacks the gains from
# each sender to the relay, (g13, g23), on a leading axis and ``far`` the
# gains from the relay to each direction's destination, (g23, g13).  One
# symmetric power limit P applies to both end nodes.


def _twrc_combine_cap(near: np.ndarray, p: np.ndarray, s2: ArrayLike) -> np.ndarray:
    """The destination's direct signal combined with the relay's description."""
    return _c((near * near * p + (1.0 + s2) * p) / (1.0 + s2))


def _twrc_nnc_rates(near, far, p, s2) -> np.ndarray:
    """The combining cap against the relay+direct multiple-access cap less
    the compression charge C(1/s2), clamped at zero."""
    mac = _c(p + far * far * p) - _c(1.0 / s2)
    return np.maximum(np.minimum(_twrc_combine_cap(near, p, s2), mac), 0.0)


def _twrc_af_rates(near, far, p, alpha) -> np.ndarray:
    """The relay forwards its received signal scaled by alpha."""
    a2 = alpha * alpha
    den = far * far * a2 + 1.0
    a = 1.0 + p * (1.0 + a2 * far * far * near * near) / den
    b = 2.0 * p * alpha * far * near / den
    return np.maximum(0.5 * np.log2((a + np.sqrt(a * a - b * b)) / 2.0), 0.0)


def _twrc_cf(near, p) -> tuple[np.ndarray, np.ndarray]:
    """Both directions' combining caps at the smallest quantizer variance
    whose description both destinations can decode, and that variance."""
    need = (1.0 + p) * (1.0 + near * near * p) - (near * p) ** 2
    s2 = np.maximum(need[0], need[1]) / (np.minimum(near[1] ** 2, near[0] ** 2) * p)
    return _twrc_combine_cap(near, p, s2), s2


def twrc_sweep_rates(
    cfgs: Sequence[TwrcConfig], scheme: str, grid: SweepGrid | None = None
) -> list[TwrcRates]:
    """Best sum rate of one two-way relay scheme at every geometry of a sweep.

    NNC sweeps the compression noise variance and AF the amplification
    factor over (0, alpha_max], boundary included, each in one
    :func:`scalar_maximize` call; CF has a closed-form optimal variance (its
    caps only degrade as it grows).  Zero-power rows get zero rates and a
    NaN parameter.
    """
    if scheme not in TWRC_SCHEMES:
        raise SchemaError(f"unknown scheme {scheme!r}; pick one of {TWRC_SCHEMES}")
    if grid is None:
        grid = SweepGrid()
    g13, g23, p = _columns([(c.g13, c.g23, c.power) for c in cfgs])
    near, far = np.stack([g13, g23]), np.stack([g23, g13])
    on = p[:, 0] > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if scheme == "CF":
            rates, param = _twrc_cf(near, p)
            param = param[:, 0]
        else:
            formula, lo, hi = _twrc_nnc_rates, grid.lo, grid.hi
            if scheme == "AF":
                formula = _twrc_af_rates
                hi = np.sqrt(p / (g13**2 * p + g23**2 * p + 1.0))[:, 0]
                lo = hi * 1e-6
            param, _ = scalar_maximize(
                lambda x: np.add(*formula(near, far, p, x)), grid, lo, hi, on
            )
            rates = formula(near, far, p, param[:, None])
    r1, r2 = np.where(on, rates[..., 0], 0.0)
    param = np.where(on, param, np.nan)
    flags = ((g13 >= GAIN_CAP) | (g23 >= GAIN_CAP))[:, 0]
    return [
        TwrcRates(scheme, a, b, a + b, x, flag)
        for a, b, x, flag in zip(r1.tolist(), r2.tolist(), param.tolist(), flags.tolist())
    ]


def twrc_rates(
    cfg: TwrcConfig, scheme: str, grid: SweepGrid | None = None
) -> TwrcRates:
    """One geometry: the one-row case of :func:`twrc_sweep_rates`."""
    return twrc_sweep_rates([cfg], scheme, grid)[0]


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
        # The caps square these and take 2**(2*r0); keep both finite.
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


def _pair_region_sum(c1: ArrayLike, c2: ArrayLike, csum: ArrayLike | None = None):
    """Largest R1 + R2 over 0 <= R1 <= c1, 0 <= R2 <= c2, R1 + R2 <= csum,
    with every cap clamped at zero first: min(c1+ + c2+, csum+)."""
    total = np.maximum(c1, 0.0) + np.maximum(c2, 0.0)
    return total if csum is None else np.minimum(total, np.maximum(csum, 0.0))


def _swap(cfg: IrcConfig) -> IrcConfig:
    """The same topology with users 1 <-> 2 and destinations 4 <-> 5
    exchanged, so a formula written for user 1 gives user 2's value."""
    return IrcConfig(
        g13=cfg.g23, g23=cfg.g13, g14=cfg.g25, g24=cfg.g15, g15=cfg.g24,
        g25=cfg.g14, r0=cfg.r0, power=cfg.power,
    )


class _IrcTerms(NamedTuple):
    """The s2-free terms of user 1's caps at destination 4, as floats or
    columns, so a cap recomputes only what depends on s2.  A sweep stacks
    user 1's terms and those of :func:`_swap` (user 2's at destination 5)
    on a leading axis.  With s_jk = g_jk^2 P, X = (g13 g24 - g23 g14)^2 P^2:"""

    r0: ArrayLike
    own: ArrayLike  # s14
    both: ArrayLike  # s14 + s24
    relay: ArrayLike  # s13
    relay_x: ArrayLike  # s13 + X
    relays_x: ArrayLike  # s13 + s23 + X
    other_relay: ArrayLike  # s23
    listen: ArrayLike  # 1 + s24
    c_own: ArrayLike  # C(s14)
    c_both: ArrayLike  # C(s14 + s24)
    alone: ArrayLike  # C(s14 / (1 + s24)): user 2 treated as noise
    hf_noise: ArrayLike  # (s23 + s24 + 1) / (1 + s24)


def _irc_terms(cfg: IrcConfig) -> _IrcTerms:
    p = cfg.power
    s13, s23, s14, s24 = (g * g * p for g in (cfg.g13, cfg.g23, cfg.g14, cfg.g24))
    x = (cfg.g13 * cfg.g24 - cfg.g23 * cfg.g14) ** 2 * p * p
    return _IrcTerms(
        r0=cfg.r0, own=s14, both=s14 + s24, relay=s13, relay_x=s13 + x,
        relays_x=s13 + s23 + x, other_relay=s23, listen=1.0 + s24,
        c_own=c_rate(s14), c_both=c_rate(s14 + s24), alone=c_rate(s14 / (1.0 + s24)),
        hf_noise=(s23 + s24 + 1.0) / (1.0 + s24),
    )


def _irc_t2_caps(t: _IrcTerms, s2: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """User 1's cap and the tighter of the two sum caps at destination 4."""
    digital = t.r0 - _c(1.0 / s2)
    k = 1.0 + s2
    return (
        np.minimum(t.c_own + digital, _c(t.relay / k + t.own)),
        np.minimum(t.c_both + digital, _c(t.relays_x / k + t.both)),
    )


def _irc_hf_cap(t: _IrcTerms, s2: ArrayLike) -> np.ndarray:
    """User 1's hash-and-forward cap: direct SNR with user 2 as noise, plus
    the relay link minus the charge for describing the relay output."""
    return t.alone + t.r0 - _c(t.hf_noise / s2)


def _irc_cf_cap(t: _IrcTerms, s2: ArrayLike) -> np.ndarray:
    """User 1's compress-and-forward cap: destination 4 combines its own
    output with the relay's description at quantizer variance s2."""
    k = 1.0 + s2
    return _c((t.relay_x + k * t.own) / (t.other_relay + k * t.listen))


def _irc_quantization_threshold(t: _IrcTerms) -> np.ndarray:
    """Destination 4's variance threshold: classic CF needs sigma2 at or
    above it (at both destinations), HF at or below it; inf when r0 = 0."""
    scale = np.power(2.0, 2.0 * t.r0) - 1.0
    return np.where(scale > 0.0, (t.relays_x + t.both + 1.0) / (t.both + 1.0) / scale, np.inf)


def _irc_sum(scheme: str, t: _IrcTerms, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both users' caps at variance s2 (user axis first) and the scheme's
    best sum rate over them."""
    if scheme == "NNC-T2":
        caps, sums = _irc_t2_caps(t, s2)
        return caps, _pair_region_sum(caps[0], caps[1], np.minimum(sums[0], sums[1]))
    if scheme == "NNC-T3":
        caps = np.minimum(_irc_hf_cap(t, s2), _irc_cf_cap(t, s2))
    else:
        caps = (_irc_cf_cap if scheme == "CF" else _irc_hf_cap)(t, s2)
    return caps, _pair_region_sum(caps[0], caps[1])


def irc_sweep_rates(
    cfgs: Sequence[IrcConfig], scheme: str, grid: SweepGrid | None = None
) -> list[IrcRates]:
    """Best sum rate of one interference-relay scheme on every row of a sweep.

    Every scheme optimizes one quantizer variance, all rows in one
    :func:`scalar_maximize` call.  CF is feasible only above a variance
    threshold and HF only below one, so each row's range ends there.
    Where r0 = 0 classic CF has no feasible variance and falls back to
    direct transmission (flagged).  Zero-power rows get zero rates and a
    NaN variance.
    """
    if scheme not in IRC_SCHEMES:
        raise SchemaError(f"unknown scheme {scheme!r}; pick one of {IRC_SCHEMES}")
    if grid is None:
        grid = SweepGrid()
    t = _IrcTerms(*_columns([[*map(_irc_terms, side)] for side in (cfgs, map(_swap, cfgs))]))
    on = np.array([c.power > 0.0 for c in cfgs])
    lo, hi, fallback = grid.lo, grid.hi, np.zeros_like(on)
    with np.errstate(divide="ignore", invalid="ignore"):
        t4, t5 = _irc_quantization_threshold(t)[..., 0]
        if scheme == "CF":
            # an inf threshold: no variance fits the digital link budget
            lo = np.maximum(t4, t5)
            hi = np.maximum(grid.hi, 10.0 * lo)
            fallback = on & np.isinf(lo)
        elif scheme == "HF":
            # HF caps grow with the variance: look up to the threshold
            s2_max = np.minimum(t4, t5)
            finite = np.isfinite(s2_max)
            lo = np.where(finite, np.minimum(grid.lo, s2_max / 100.0), grid.lo)
            hi = np.where(finite, s2_max, grid.hi)
        s2, best = scalar_maximize(
            lambda s: _irc_sum(scheme, t, s)[1], grid, lo, hi, on & ~fallback
        )
        caps = _irc_sum(scheme, t, s2[:, None])[0][..., 0]
    direct = t.alone[..., 0]
    r1, r2 = np.where(fallback, direct, np.maximum(caps, 0.0))
    total = np.where(fallback, direct[0] + direct[1], best)
    s2 = np.where(fallback, np.inf, s2)
    r1, r2, total = (np.where(on, v, 0.0) for v in (r1, r2, total))
    return [
        IrcRates(scheme, *row)
        for row in zip(*(v.tolist() for v in (r1, r2, total, s2, fallback)))
    ]


def irc_rates(
    cfg: IrcConfig, scheme: str, grid: SweepGrid | None = None
) -> IrcRates:
    """One configuration: the one-row case of :func:`irc_sweep_rates`."""
    return irc_sweep_rates([cfg], scheme, grid)[0]


def db_to_power(db: float) -> float:
    """Convert a dB power figure to linear scale: P = 10**(dB/10)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise SchemaError(
            f"power of {db!r} dB overflows a float (10**(dB/10) > 1.8e308)"
        ) from None
