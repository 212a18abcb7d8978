import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nncbound.errors import EvaluationError, SchemaError
from nncbound.gauss_bounds import (
    GAIN_CAP,
    IrcConfig,
    SweepGrid,
    TwrcConfig,
    c_rate,
    cut_size_budget,
    db_to_power,
    gap_certificate,
    gauss_cut_bounds,
    gauss_cutset_outer,
    gauss_nnc_inner,
    irc_rates,
    scalar_maximize,
    twrc_rates,
)
from nncbound.infocalc import gauss_cut_rate
from nncbound.netmodel import GaussianNetwork, NodeSet, RateRegion, max_weighted_sum


def crate(x):
    return 0.5 * math.log2(1.0 + x)


def rand_gauss_net(rng, n, power):
    g = rng.normal(size=(n, n))
    np.fill_diagonal(g, 0.0)
    full = NodeSet.full(n)
    return GaussianNetwork(g, power, tuple(full for _ in range(n)))


class TestBasics:
    def test_c_rate(self):
        assert c_rate(0.0) == 0.0
        assert c_rate(1.0) == pytest.approx(0.5)
        assert c_rate(3.0) == pytest.approx(1.0)
        with pytest.raises(EvaluationError):
            c_rate(-0.5)

    def test_cut_size_budget_hand_values(self):
        assert cut_size_budget(NodeSet.of(2, 1)) == pytest.approx(1.0)
        assert cut_size_budget(NodeSet.of(3, 1, 2)) == pytest.approx(2.0)
        # a lone sender against three receivers still pays only its own
        # half bit plus the single-description allowance
        assert cut_size_budget(NodeSet.of(4, 1)) == pytest.approx(1.0)
        assert cut_size_budget(NodeSet.of(4, 1, 2, 3)) == pytest.approx(
            1.5 + 0.5 * math.log2(6.0)
        )

    def test_db_to_power(self):
        assert db_to_power(0.0) == pytest.approx(1.0)
        assert db_to_power(10.0) == pytest.approx(10.0)
        assert db_to_power(30.0) == pytest.approx(1000.0)


class TestGapIdentity:
    def test_outer_minus_inner_equals_budget_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = float(rng.choice([0.1, 1.0, 10.0]))
            net = rand_gauss_net(rng, n, p)
            for mask in range(1, 2**n - 1):
                cut = NodeSet(n, mask)
                diff = gauss_cutset_outer(net, cut) - gauss_nnc_inner(net, cut)
                assert diff == pytest.approx(cut_size_budget(cut), abs=1e-12)

    def test_inner_raw_is_cut_rate_minus_half_cut_size(self):
        rng = np.random.default_rng(22)
        net = rand_gauss_net(rng, 4, 3.0)
        for mask in (0b0001, 0b0110, 0b0111):
            cut = NodeSet(4, mask)
            expect = gauss_cut_rate(net, cut) - 0.5 * len(cut)
            assert gauss_nnc_inner(net, cut) == pytest.approx(expect, abs=1e-12)

    def test_certificate_covers_all_proper_cuts(self):
        rng = np.random.default_rng(23)
        n = 4
        net = rand_gauss_net(rng, n, 2.0)
        cert = gap_certificate(net)
        masks = set(cert.masks.tolist())
        assert masks == set(range(1, 2**n - 1))
        for i in range(len(cert)):
            assert cert.gap[i] == pytest.approx(cert.budget[i], abs=1e-12)
            assert cert.gap[i] == pytest.approx(
                cert.outer[i] - cert.inner_raw[i], abs=1e-15
            )
            assert cert.ok[i]

    def test_certificate_matches_per_cut_closed_forms_exactly(self):
        rng = np.random.default_rng(25)
        net = rand_gauss_net(rng, 6, 10.0)
        cert = gap_certificate(net)
        outer, inner, budget = gauss_cut_bounds(net, cert.masks)
        assert outer.tolist() == cert.outer.tolist()
        assert inner.tolist() == cert.inner_raw.tolist()
        assert budget.tolist() == cert.budget.tolist()
        for i, mask in enumerate(cert.masks.tolist()):
            cut = NodeSet(6, mask)
            assert cert.outer[i] == gauss_cutset_outer(net, cut)
            assert cert.inner_raw[i] == gauss_nnc_inner(net, cut)
            assert cert.gap[i] == cert.outer[i] - cert.inner_raw[i]
            assert cert.budget[i] == cut_size_budget(cut)

    def test_certificate_multicast_restricts_cuts(self):
        rng = np.random.default_rng(24)
        n = 3
        net = rand_gauss_net(rng, n, 1.0)
        cert = gap_certificate(net, multicast=NodeSet.of(n, 3))
        masks = set(cert.masks.tolist())
        assert masks == {0b001, 0b010, 0b011}

    def test_certificate_needs_destination(self):
        g = np.zeros((2, 2))
        empty = NodeSet.empty(2)
        net = GaussianNetwork(g, 1.0, (empty, empty))
        with pytest.raises(SchemaError):
            gap_certificate(net)


class TestSweepGrid:
    def test_values_cover_endpoints_ascending(self):
        grid = SweepGrid("sigma2", lo=0.5, hi=8.0, points=5)
        v = grid.values()
        assert v[0] == pytest.approx(0.5)
        assert v[-1] == pytest.approx(8.0)
        assert np.all(np.diff(v) > 0)
        # per-row bounds give one row of samples each, as one-row calls do
        rows = grid.values(np.array([0.5, 3.0]), np.array([8.0, 3.0]))
        assert rows.shape == (2, 5)
        assert np.array_equal(rows[0], v)
        assert rows[1] == pytest.approx(3.0)

    def test_single_point_grid(self):
        grid = SweepGrid("alpha", lo=2.0, hi=9.0, points=1)
        assert list(grid.values()) == [2.0]

    def test_validation(self):
        with pytest.raises(SchemaError):
            SweepGrid("s", lo=-1.0, hi=1.0)
        with pytest.raises(SchemaError):
            SweepGrid("s", lo=2.0, hi=1.0)
        with pytest.raises(SchemaError):
            SweepGrid("s", points=0)
        with pytest.raises(SchemaError):
            SweepGrid("s", refine_iters=-1)


class TestScalarMaximize:
    # each case is a one-row call of the lockstep array maximizer

    def test_finds_smooth_peak(self):
        grid = SweepGrid("x", lo=1e-2, hi=1e2, points=200, refine_iters=80)
        arg, val = scalar_maximize(
            lambda x: -((np.log(x) - math.log(3.0)) ** 2), grid, grid.lo, grid.hi
        )
        assert arg.shape == val.shape == (1,)
        assert arg[0] == pytest.approx(3.0, rel=1e-6)
        assert val[0] == pytest.approx(0.0, abs=1e-10)

    def test_constant_objective_returns_smallest_point(self):
        grid = SweepGrid("x", lo=0.5, hi=32.0, points=25, refine_iters=40)
        arg, val = scalar_maximize(lambda x: np.full_like(x, 7.25), grid, grid.lo, grid.hi)
        assert val[0] == 7.25
        assert arg[0] == pytest.approx(0.5)

    def test_all_infeasible_raises(self):
        grid = SweepGrid("x", lo=1.0, hi=2.0, points=8)
        with pytest.raises(EvaluationError):
            scalar_maximize(lambda x: np.full_like(x, -np.inf), grid, grid.lo, grid.hi)

    def test_nan_treated_as_infeasible(self):
        grid = SweepGrid("x", lo=0.1, hi=10.0, points=50, refine_iters=20)
        def f(x):
            return np.where(x < 1.0, np.nan, -np.abs(x - 2.0))
        arg, val = scalar_maximize(f, grid, grid.lo, grid.hi)
        assert arg[0] == pytest.approx(2.0, rel=1e-4)
        assert val[0] == pytest.approx(0.0, abs=1e-4)

    def test_never_below_best_grid_sample(self):
        rng = np.random.default_rng(24)
        grid = SweepGrid("x", lo=1e-3, hi=1e3, points=60, refine_iters=25)
        for _ in range(5):
            c = rng.normal(size=3)
            def f(x, c=c):
                lx = np.log(x)
                return c[0] * np.sin(3 * lx) + c[1] * lx - c[2] * lx * lx
            best_raw = max(f(grid.values()))
            _, val = scalar_maximize(f, grid, grid.lo, grid.hi)
            assert val[0] >= best_raw - 1e-15

    def test_rows_with_own_bounds_match_one_row_calls(self):
        # rows in lockstep never interact: each row of a multi-row call is
        # the one-row call on that row's bounds and inputs, bit for bit
        grid = SweepGrid("x", points=40, refine_iters=30)
        peaks = np.array([0.3, 2.0, 50.0, 7.0])
        lo = np.array([1e-2, 1.0, 60.0, 1e-3])
        hi = np.array([1.0, 1e3, 1e4, 7.0])

        def objective(peak):
            return lambda x: -((np.log(x) - np.log(peak)) ** 2)

        args, vals = scalar_maximize(objective(peaks[:, None]), grid, lo, hi)
        for i in range(len(peaks)):
            a, v = scalar_maximize(objective(peaks[i]), grid, lo[i], hi[i])
            assert (args[i], vals[i]) == (a[0], v[0])
        assert args[0] == pytest.approx(0.3, rel=1e-6)
        assert args[2] == 60.0  # the peak lies below this row's lo
        assert args[3] == pytest.approx(7.0, rel=1e-9)

    def test_inactive_rows_are_skipped_and_an_infeasible_row_raises(self):
        grid = SweepGrid("x", points=30, refine_iters=10)
        lo, hi = np.array([1.0, 1.0, 1.0]), np.array([4.0, 4.0, 4.0])

        def f(x):  # row 1 is infeasible everywhere
            return np.where(np.arange(3)[:, None] == 1, -np.inf, -x)

        with pytest.raises(EvaluationError, match="row 1"):
            scalar_maximize(f, grid, lo, hi)
        args, vals = scalar_maximize(f, grid, lo, hi, active=[True, False, True])
        assert math.isnan(args[1]) and math.isnan(vals[1])
        assert (args[0], vals[0], args[2], vals[2]) == (1.0, -1.0, 1.0, -1.0)

    def test_bad_row_bounds_rejected(self):
        grid = SweepGrid("x", points=5)
        with pytest.raises(SchemaError, match="row 1"):
            scalar_maximize(lambda x: -x, grid, [1.0, 0.0], [2.0, 2.0])


class TestTwrc:
    def test_config_validation(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(SchemaError):
                TwrcConfig(d=bad, gamma=3.0, power=10.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(SchemaError, match="gamma"):
                TwrcConfig(d=0.3, gamma=bad, power=10.0)
        with pytest.raises(SchemaError):
            TwrcConfig(d=0.3, gamma=3.0, power=-2.0)

    def test_gains_follow_distance_law(self):
        cfg = TwrcConfig(d=0.25, gamma=3.0, power=10.0)
        assert cfg.g13 == pytest.approx(0.25 ** -1.5)
        assert cfg.g23 == pytest.approx(0.75 ** -1.5)
        assert not cfg.degenerate
        assert TwrcConfig(d=0.0, gamma=3.0, power=1.0).degenerate

    def test_overflowing_gain_is_capped(self):
        # 0.3 ** -5000 overflows a float; the gain lands on the cap instead
        cfg = TwrcConfig(0.3, 10000, 10)
        assert cfg.g13 == GAIN_CAP
        assert cfg.g23 == GAIN_CAP
        assert cfg.degenerate

    def test_network_layout(self):
        cfg = TwrcConfig(d=0.2, gamma=2.0, power=4.0)
        net = cfg.network()
        assert net.n_nodes == 3
        assert net.power == 4.0
        assert net.gains[0, 1] == 1.0 and net.gains[1, 0] == 1.0
        assert net.gains[0, 2] == pytest.approx(cfg.g13)
        assert net.gains[2, 0] == pytest.approx(cfg.g13)
        assert net.gains[1, 2] == pytest.approx(cfg.g23)
        assert net.gains[2, 1] == pytest.approx(cfg.g23)
        assert net.dests[0] == NodeSet.of(3, 2)
        assert net.dests[1] == NodeSet.of(3, 1)
        assert not net.dests[2]

    def test_zero_power_all_zero(self):
        cfg = TwrcConfig(d=0.3, gamma=3.0, power=0.0)
        for scheme in ("NNC", "AF", "CF"):
            r = twrc_rates(cfg, scheme)
            assert r.sum_rate == 0.0
            assert math.isnan(r.param)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SchemaError):
            twrc_rates(TwrcConfig(d=0.3, gamma=3.0, power=10.0), "XYZ")

    def test_relay_quantization_beats_amplify_and_compress(self):
        for d in (0.1, 0.3, 0.5):
            cfg = TwrcConfig(d=d, gamma=3.0, power=10.0)
            nnc = twrc_rates(cfg, "NNC").sum_rate
            assert nnc >= twrc_rates(cfg, "AF").sum_rate - 1e-9
            assert nnc >= twrc_rates(cfg, "CF").sum_rate - 1e-9

    def test_cf_noise_level_solves_rate_crossing(self):
        # the closed-form quantization noise sits exactly where the
        # decode cap meets the quantize cap for the binding direction
        for d in (0.2, 0.35, 0.5):
            cfg = TwrcConfig(d=d, gamma=3.0, power=10.0)
            p, g13, g23 = cfg.power, cfg.g13, cfg.g23
            def crossing(g_near, g_far):
                def diff(s):
                    mac = crate(g_far**2 * p + p) - crate(1.0 / s)
                    quant = crate((g_near**2 * p + (1 + s) * p) / (1 + s))
                    return mac - quant
                return brentq(diff, 1e-9, 1e12, xtol=1e-13, rtol=8.9e-16)
            expect = max(crossing(g13, g23), crossing(g23, g13))
            assert twrc_rates(cfg, "CF").param == pytest.approx(expect, rel=1e-9)

    def test_symmetric_midpoint_equalizes_directions(self):
        cfg = TwrcConfig(d=0.5, gamma=3.0, power=10.0)
        nnc = twrc_rates(cfg, "NNC")
        assert nnc.r1 == pytest.approx(nnc.r2, abs=1e-9)
        cf = twrc_rates(cfg, "CF")
        assert nnc.sum_rate == pytest.approx(cf.sum_rate, abs=1e-6)

    def test_af_never_amplifies_beyond_power_budget(self):
        for d in (0.1, 0.4):
            cfg = TwrcConfig(d=d, gamma=3.0, power=10.0)
            af = twrc_rates(cfg, "AF")
            p = cfg.power
            alpha_max = math.sqrt(p / (cfg.g13**2 * p + cfg.g23**2 * p + 1.0))
            assert 0.0 < af.param <= alpha_max + 1e-15

    @pytest.mark.parametrize("d", [0.0, 0.0625, 0.25, 0.375, 0.5, 0.8125, 1.0])
    def test_mirrored_geometry_swaps_directions(self, d):
        # at dyadic d, 1 - (1 - d) == d, so mirroring the relay position
        # swaps the two gains exactly and each direction's formula must
        # give the other direction's value bit for bit
        grid = SweepGrid(points=40, refine_iters=20)
        for gamma, power in ((3.0, 10.0), (2.0, 100.0), (0.5, 0.3)):
            cfg = TwrcConfig(d, gamma, power)
            mirrored = TwrcConfig(1.0 - d, gamma, power)
            assert mirrored.g13 == cfg.g23 and mirrored.g23 == cfg.g13
            for scheme in ("NNC", "AF", "CF"):
                a = twrc_rates(cfg, scheme, grid)
                b = twrc_rates(mirrored, scheme, grid)
                assert (b.r1, b.r2) == (a.r2, a.r1)
                assert b.sum_rate == a.sum_rate
                assert b.param == a.param
                assert b.degenerate_gains == a.degenerate_gains


class TestIrc:
    def _cfg(self, **kw):
        base = dict(
            g13=0.1, g23=0.5, g14=1.0, g24=0.5, g15=0.5, g25=1.0,
            r0=1.0, power=10.0,
        )
        base.update(kw)
        return IrcConfig(**base)

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            self._cfg(power=-1.0)
        with pytest.raises(SchemaError):
            self._cfg(r0=-0.5)
        with pytest.raises(SchemaError):
            self._cfg(g13=-0.1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SchemaError):
            irc_rates(self._cfg(), "nope")

    def test_sum_rates_respect_individual_caps(self):
        for p in (1.0, 10.0, 100.0):
            cfg = self._cfg(power=p)
            for scheme in ("NNC-T2", "NNC-T3", "CF", "HF"):
                r = irc_rates(cfg, scheme)
                assert r.r1_cap >= 0.0 and r.r2_cap >= 0.0
                assert 0.0 <= r.sum_rate <= r.r1_cap + r.r2_cap + 1e-9

    def test_layered_quantize_dominates_single_layer_schemes(self):
        for p_db in (0.0, 9.0, 21.0, 30.0):
            cfg = self._cfg(power=db_to_power(p_db))
            t3 = irc_rates(cfg, "NNC-T3").sum_rate
            assert t3 >= irc_rates(cfg, "CF").sum_rate - 1e-9
            assert t3 >= irc_rates(cfg, "HF").sum_rate - 1e-9

    def test_hash_and_compress_caps_cross_at_threshold(self):
        # at each per-destination variance threshold the hash-forward cap
        # and the compress-forward cap coincide; the layered scheme's
        # min() therefore loses nothing at the boundary
        rng = np.random.default_rng(25)
        from nncbound.gauss_bounds import (
            _irc_cf_cap,
            _irc_hf_cap,
            _irc_quantization_threshold,
            _irc_terms,
            _swap,
        )
        for _ in range(10):
            cfg = IrcConfig(
                g13=float(rng.uniform(0.05, 2.0)),
                g23=float(rng.uniform(0.05, 2.0)),
                g14=float(rng.uniform(0.05, 2.0)),
                g24=float(rng.uniform(0.05, 2.0)),
                g15=float(rng.uniform(0.05, 2.0)),
                g25=float(rng.uniform(0.05, 2.0)),
                r0=float(rng.uniform(0.3, 2.0)),
                power=float(rng.uniform(0.5, 50.0)),
            )
            # destination 4 on cfg, destination 5 on the swapped topology
            for c in (cfg, _swap(cfg)):
                terms = _irc_terms(c)
                t = _irc_quantization_threshold(terms)
                assert _irc_hf_cap(terms, t) == pytest.approx(
                    _irc_cf_cap(terms, t), abs=1e-9
                )

    def test_zero_relay_rate_falls_back_to_direct_links(self):
        cfg = self._cfg(r0=0.0)
        cf = irc_rates(cfg, "CF")
        assert cf.fallback
        assert math.isinf(cf.sigma2)
        p = cfg.power
        r1 = crate(cfg.g14**2 * p / (cfg.g24**2 * p + 1.0))
        r2 = crate(cfg.g25**2 * p / (cfg.g15**2 * p + 1.0))
        assert cf.r1_cap == pytest.approx(r1, abs=1e-12)
        assert cf.r2_cap == pytest.approx(r2, abs=1e-12)
        assert cf.sum_rate == pytest.approx(r1 + r2, abs=1e-12)

    def test_zero_power_all_zero(self):
        cfg = self._cfg(power=0.0)
        for scheme in ("NNC-T2", "NNC-T3", "CF", "HF"):
            r = irc_rates(cfg, scheme)
            assert r.sum_rate == 0.0
            assert math.isnan(r.sigma2)

    def test_relay_silence_equalizes_t2_and_direct_interference(self):
        # with no digital link the relay contributes nothing to the
        # layered schemes either: every scheme collapses to rates no
        # better than the interference channel treated as noise
        cfg = self._cfg(r0=0.0)
        p = cfg.power
        direct = crate(cfg.g14**2 * p / (cfg.g24**2 * p + 1.0)) + crate(
            cfg.g25**2 * p / (cfg.g15**2 * p + 1.0)
        )
        for scheme in ("NNC-T3", "HF"):
            assert irc_rates(cfg, scheme).sum_rate <= direct + 1e-6


    def test_swapped_users_swap_caps(self):
        # each cap is one user-1 formula evaluated on cfg and on _swap(cfg),
        # so swapping the users must swap the caps bit for bit
        from nncbound.gauss_bounds import _swap

        rng = np.random.default_rng(26)
        grid = SweepGrid(points=40, refine_iters=20)
        cfgs = [self._cfg(), self._cfg(r0=0.0)]
        for _ in range(6):
            g = rng.uniform(0.0, 2.0, 6)
            cfgs.append(IrcConfig(
                *map(float, g), r0=float(rng.uniform(0.0, 2.0)),
                power=float(10 ** rng.uniform(-1, 3)),
            ))
        for cfg in cfgs:
            swapped = _swap(cfg)
            assert _swap(swapped) == cfg
            for scheme in ("NNC-T2", "NNC-T3", "CF", "HF"):
                a = irc_rates(cfg, scheme, grid)
                b = irc_rates(swapped, scheme, grid)
                assert (b.r1_cap, b.r2_cap) == (a.r2_cap, a.r1_cap)
                assert b.sum_rate == a.sum_rate
                assert b.sigma2 == a.sigma2
                assert b.fallback == a.fallback


class TestPairRegionSum:
    def test_hand_cases(self):
        from nncbound.gauss_bounds import _pair_region_sum

        assert _pair_region_sum(1.0, 2.0, 10.0) == pytest.approx(3.0)
        assert _pair_region_sum(1.0, 2.0, 2.5) == pytest.approx(2.5)
        assert _pair_region_sum(-0.5, 2.0, 10.0) == pytest.approx(2.0)
        assert _pair_region_sum(1.0, 2.0) == pytest.approx(3.0)
        assert _pair_region_sum(-1.0, -1.0, 5.0) == 0.0

    def test_matches_region_maximum(self):
        # the closed form against the general region maximizer it replaced
        from nncbound.gauss_bounds import _pair_region_sum

        def region_sum(c1, c2, csum):
            constraints = {NodeSet.of(2, 1): c1, NodeSet.of(2, 2): c2}
            if math.isfinite(csum):
                constraints[NodeSet.of(2, 1, 2)] = csum
            region = RateRegion(2, constraints)
            return max_weighted_sum(region, [1.0, 1.0], NodeSet.full(2))

        rng = np.random.default_rng(27)
        cases = [(1.0, 2.0, math.inf), (-1.0, 3.0, math.inf), (1.0, 2.0, 0.0),
                 (-1.0, -2.0, 0.0), (0.1, 0.2, 0.1 + 0.2), (2.0, -1.0, -3.0)]
        for _ in range(300):
            c1, c2 = (float(v) for v in rng.uniform(-2.0, 5.0, 2))
            cases.append((c1, c2, float(rng.uniform(-2.0, 10.0))))
            cases.append((c1, c2, math.inf))
            cases.append((c1, c2, 0.0))
            cases.append((c1, c2, max(c1, 0.0) + max(c2, 0.0)))
        for c1, c2, csum in cases:
            got = _pair_region_sum(c1, c2, csum)
            want = region_sum(c1, c2, csum)
            assert abs(got - want) <= math.ulp(max(got, want)), (c1, c2, csum)
