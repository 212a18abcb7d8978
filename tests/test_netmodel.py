import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nncbound.errors import SchemaError
from nncbound.netmodel import (
    CutsetEntry,
    CutsetReport,
    DmNetwork,
    GaussianNetwork,
    NodeSet,
    RateRegion,
    enumerate_cutsets,
    max_weighted_sum,
    region_from_report,
    subsets_between,
)

from helpers import dests_tuple, rand_channel


# ---------------------------------------------------------------------------
# NodeSet


class TestNodeSet:
    def test_construction_and_membership(self):
        s = NodeSet.of(5, 1, 3)
        assert 1 in s and 3 in s
        assert 2 not in s and 5 not in s
        assert 0 not in s and 6 not in s
        assert len(s) == 2
        assert list(s) == [1, 3]
        assert s.nodes == (1, 3)
        assert str(s) == "{1,3}"

    def test_empty_and_full(self):
        assert not NodeSet.empty(4)
        assert len(NodeSet.full(4)) == 4
        assert str(NodeSet.empty(4)) == "{}"

    def test_out_of_range_node_rejected(self):
        with pytest.raises(SchemaError):
            NodeSet.of(3, 4)
        with pytest.raises(SchemaError):
            NodeSet.of(3, 0)

    def test_mask_outside_universe_rejected(self):
        with pytest.raises(SchemaError):
            NodeSet(3, 1 << 3)
        with pytest.raises(SchemaError):
            NodeSet(17, 0)

    def test_set_algebra(self):
        a = NodeSet.of(4, 1, 2)
        b = NodeSet.of(4, 2, 3)
        assert (a | b).nodes == (1, 2, 3)
        assert (a & b).nodes == (2,)
        assert (a - b).nodes == (1,)
        assert a.add(4).nodes == (1, 2, 4)
        assert a.remove(2).nodes == (1,)
        assert a.issubset(a | b)
        assert not (a | b).issubset(a)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            NodeSet.of(3, 1) | NodeSet.of(4, 1)

    @given(st.integers(1, 10), st.data())
    def test_complement_involution(self, n, data):
        mask = data.draw(st.integers(0, (1 << n) - 1))
        s = NodeSet(n, mask)
        assert s.complement().complement() == s
        assert (s | s.complement()) == NodeSet.full(n)
        assert not (s & s.complement())

    @given(st.integers(1, 8), st.data())
    def test_de_morgan(self, n, data):
        a = NodeSet(n, data.draw(st.integers(0, (1 << n) - 1)))
        b = NodeSet(n, data.draw(st.integers(0, (1 << n) - 1)))
        assert (a | b).complement() == (a.complement() & b.complement())
        assert (a & b).complement() == (a.complement() | b.complement())


class TestSubsetsBetween:
    def test_counts_and_ordering(self):
        lo = NodeSet.of(5, 2)
        hi = NodeSet.of(5, 2, 3, 5)
        subs = subsets_between(lo, hi)
        assert len(subs) == 4  # 2 free bits
        assert all(lo.issubset(t) and t.issubset(hi) for t in subs)
        masks = [t.mask for t in subs]
        assert masks == sorted(masks)

    def test_not_nested_gives_empty(self):
        assert subsets_between(NodeSet.of(3, 1), NodeSet.of(3, 2)) == []

    def test_equal_endpoints(self):
        s = NodeSet.of(4, 1, 4)
        assert subsets_between(s, s) == [s]

    def test_full_lattice_size(self):
        subs = subsets_between(NodeSet.empty(4), NodeSet.full(4))
        assert len(subs) == 16


# ---------------------------------------------------------------------------
# cut enumeration


class TestEnumerateCutsets:
    def test_multicast_matches_brute_force(self):
        n = 4
        d = NodeSet.of(n, 2, 4)
        got = enumerate_cutsets(n, multicast=d)
        expect = []
        for mask in range(1, 1 << n):
            s = NodeSet(n, mask)
            elig = s.complement() & d
            if elig:
                expect.append((s, elig))
        assert got == expect

    def test_dests_mode_matches_brute_force(self):
        n = 4
        dests = dests_tuple(n, [3], [], [1, 4], [])
        got = enumerate_cutsets(n, dests=dests)
        for s, elig in got:
            wanted = NodeSet.empty(n)
            for k in s:
                wanted = wanted | dests[k - 1]
            assert elig == (s.complement() & wanted)
            assert elig
        # cut {2} has no sources inside, so it must be absent
        assert all(s.mask != 0b0010 for s, _ in got)

    def test_full_and_empty_cuts_skipped(self):
        got = enumerate_cutsets(3, multicast=NodeSet.full(3))
        masks = [s.mask for s, _ in got]
        assert 0 not in masks and 7 not in masks

    def test_selector_required(self):
        with pytest.raises(SchemaError):
            enumerate_cutsets(3)
        # multicast replaces dests when both are given
        n = 3
        d = NodeSet.of(n, 1)
        got = enumerate_cutsets(n, multicast=d, dests=dests_tuple(n, [], [3], []))
        expect = []
        for mask in range(1, 1 << n):
            s = NodeSet(n, mask)
            elig = s.complement() & d
            if elig:
                expect.append((s, elig))
        assert got == expect

    def test_universe_mismatch(self):
        with pytest.raises(SchemaError):
            enumerate_cutsets(3, multicast=NodeSet.of(4, 1))


# ---------------------------------------------------------------------------
# network containers


class TestDmNetwork:
    def test_valid_construction(self):
        rng = np.random.default_rng(0)
        net = DmNetwork(
            (2, 3), (3, 2), rand_channel(rng, (2, 3), (3, 2)),
            dests_tuple(2, [2], []),
        )
        assert net.n_nodes == 2

    def test_bad_row_sum_rejected(self):
        chan = np.ones((2, 2)) * 0.6
        with pytest.raises(SchemaError, match="sums to"):
            DmNetwork((2,), (2,), chan, dests_tuple(1, []))

    def test_row_sums_checked_jointly_over_outputs(self):
        # Normalizing only the last axis leaves p(y1,y2|x) summing to 2.
        rng = np.random.default_rng(1)
        a = rng.random((2, 2, 2, 2, 2, 2))
        bad = a / a.sum(axis=-1, keepdims=True)
        with pytest.raises(SchemaError, match="sums to"):
            DmNetwork((2, 2, 2), (2, 2, 2), bad, dests_tuple(3, [3], [], []))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="shape"):
            DmNetwork((2,), (2,), np.ones((2, 3)) / 3, dests_tuple(1, []))

    def test_negative_entries_rejected(self):
        chan = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(SchemaError, match="negative"):
            DmNetwork((2,), (2,), chan, dests_tuple(1, []))

    def test_state_cap(self):
        with pytest.raises(SchemaError, match="state count"):
            DmNetwork(
                (64, 64, 64), (64, 64, 64), np.empty(0), dests_tuple(3, [], [], [])
            )

    def test_dest_count_must_match(self):
        rng = np.random.default_rng(2)
        with pytest.raises(SchemaError):
            DmNetwork(
                (2, 2), (2, 2), rand_channel(rng, (2, 2), (2, 2)),
                (NodeSet.of(2, 1),),
            )


class TestGaussianNetwork:
    def test_valid(self):
        net = GaussianNetwork(np.eye(3), 5.0, dests_tuple(3, [3], [], []))
        assert net.n_nodes == 3

    def test_nonsquare_rejected(self):
        with pytest.raises(SchemaError):
            GaussianNetwork(np.ones((2, 3)), 1.0, dests_tuple(2, [], []))

    def test_nonfinite_rejected(self):
        g = np.eye(2)
        g[0, 1] = np.inf
        with pytest.raises(SchemaError):
            GaussianNetwork(g, 1.0, dests_tuple(2, [], []))

    def test_negative_power_rejected(self):
        with pytest.raises(SchemaError):
            GaussianNetwork(np.eye(2), -1.0, dests_tuple(2, [], []))


# ---------------------------------------------------------------------------
# regions


class TestRateRegion:
    def test_values_clamped(self):
        r = RateRegion(3, {NodeSet.of(3, 1): -0.4, NodeSet.of(3, 2): 0.7})
        assert r.bound(NodeSet.of(3, 1)) == 0.0
        assert r.bound(NodeSet.of(3, 2)) == 0.7

    def test_missing_constraint_raises(self):
        r = RateRegion(3, {NodeSet.of(3, 1): 1.0})
        with pytest.raises(SchemaError):
            r.bound(NodeSet.of(3, 2))

    def test_empty_set_rejected(self):
        with pytest.raises(SchemaError):
            RateRegion(3, {NodeSet.empty(3): 1.0})

    def test_items_sorted_by_mask(self):
        r = RateRegion(
            3, {NodeSet.of(3, 3): 1.0, NodeSet.of(3, 1): 2.0, NodeSet.of(3, 1, 2): 3.0}
        )
        masks = [s.mask for s, _ in r.items()]
        assert masks == sorted(masks)


class TestRegionFromReport:
    def test_min_over_duplicate_keys(self):
        s = NodeSet.of(3, 1)
        rep = CutsetReport(
            "x",
            (
                CutsetEntry(s, 2, 0.9, 0.9, 0.9, 0.0),
                CutsetEntry(s, 3, 0.4, 0.4, 0.4, 0.0),
            ),
        )
        region = region_from_report(rep)
        assert region.bound(s) == 0.4

    def test_rate_set_overrides_cut(self):
        s = NodeSet.of(3, 1, 2)
        t = NodeSet.of(3, 1)
        rep = CutsetReport("x", (CutsetEntry(s, 3, 0.5, 0.5, 0.5, 0.0, rate_set=t),))
        region = region_from_report(rep)
        assert region.bound(t) == 0.5
        with pytest.raises(SchemaError):
            region.bound(s)

    def test_empty_rate_set_skipped(self):
        s = NodeSet.of(3, 1)
        rep = CutsetReport(
            "x",
            (
                CutsetEntry(s, 2, 0.3, 0.3, 0.3, 0.0, rate_set=NodeSet.empty(3)),
                CutsetEntry(s, 2, 0.8, 0.8, 0.8, 0.0),
            ),
        )
        region = region_from_report(rep)
        assert dict(region.items()) == {s: 0.8}

    def test_empty_report_rejected(self):
        with pytest.raises(SchemaError):
            region_from_report(CutsetReport("x", ()))

    def test_constrained_defaults_to_cut(self):
        s = NodeSet.of(3, 1)
        e = CutsetEntry(s, 2, 0.1, 0.1, 0.1, 0.0)
        assert e.constrained == s


# ---------------------------------------------------------------------------
# weighted-sum maximization


def _lp_oracle(region, weights, active):
    """Reference optimum via scipy's LP solver, one variable per node."""
    from scipy.optimize import linprog

    n = region.n_nodes
    rows, rhs = [], []
    for s, v in region.constraints.items():
        rows.append([1.0 if k in s else 0.0 for k in range(1, n + 1)])
        rhs.append(v)
    bounds = [(0, None) if k in active else (0, 0) for k in range(1, n + 1)]
    res = linprog(
        c=[-w for w in weights], A_ub=rows, b_ub=rhs, bounds=bounds, method="highs"
    )
    assert res.status == 0
    return -res.fun


class TestMaxWeightedSum:
    def test_single_source_takes_min_cap(self):
        region = RateRegion(
            3, {NodeSet.of(3, 1): 0.8, NodeSet.of(3, 1, 2): 0.5, NodeSet.of(3, 2): 0.9}
        )
        got = max_weighted_sum(region, [2.0, 0.0, 0.0], NodeSet.of(3, 1))
        assert got == pytest.approx(2.0 * 0.5)

    def test_two_sources_match_lp(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = 3
            constraints = {}
            for mask in range(1, 1 << n):
                if rng.random() < 0.8:
                    constraints[NodeSet(n, mask)] = float(rng.uniform(0, 2))
            region = RateRegion(n, constraints)
            weights = [float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2)), 0.0]
            active = NodeSet.of(n, 1, 2)
            covered = NodeSet.empty(n)
            for s in region.constraints:
                covered = covered | (s & active)
            got = max_weighted_sum(region, weights, active)
            if covered != active:
                assert got == math.inf
                continue
            assert got == pytest.approx(_lp_oracle(region, weights, active), abs=1e-9)

    def test_three_sources_known_vertex(self):
        # pairwise caps of 1 each; optimum is the fractional point (.5,.5,.5)
        region = RateRegion(
            3,
            {
                NodeSet.of(3, 1, 2): 1.0,
                NodeSet.of(3, 2, 3): 1.0,
                NodeSet.of(3, 1, 3): 1.0,
            },
        )
        got = max_weighted_sum(region, [1.0, 1.0, 1.0], NodeSet.full(3))
        assert got == pytest.approx(1.5)

    def test_uncovered_source_is_unbounded(self):
        region = RateRegion(3, {NodeSet.of(3, 1): 1.0})
        got = max_weighted_sum(region, [1.0, 1.0, 0.0], NodeSet.of(3, 1, 2))
        assert got == math.inf

    def test_zero_weight_sources_pinned(self):
        # node 2's cap is tiny but its weight is 0: it must not drag the sum
        region = RateRegion(
            2, {NodeSet.of(2, 1): 1.0, NodeSet.of(2, 2): 0.01, NodeSet.of(2, 1, 2): 1.0}
        )
        got = max_weighted_sum(region, [1.0, 0.0], NodeSet.full(2))
        assert got == pytest.approx(1.0)

    def test_all_zero_weights(self):
        region = RateRegion(2, {NodeSet.of(2, 1): 1.0})
        assert max_weighted_sum(region, [0.0, 0.0], NodeSet.full(2)) == 0.0

    def test_negative_weight_rejected(self):
        region = RateRegion(2, {NodeSet.of(2, 1): 1.0})
        with pytest.raises(SchemaError):
            max_weighted_sum(region, [-1.0, 0.0], NodeSet.full(2))

    def test_raising_caps_never_hurts(self):
        rng = np.random.default_rng(7)
        n = 3
        for _ in range(20):
            constraints = {
                NodeSet(n, mask): float(rng.uniform(0, 2))
                for mask in range(1, 1 << n)
            }
            region = RateRegion(n, constraints)
            weights = [1.0, 1.0, 1.0]
            base = max_weighted_sum(region, weights, NodeSet.full(n))
            bumped = {s: v + 0.1 for s, v in constraints.items()}
            better = max_weighted_sum(RateRegion(n, bumped), weights, NodeSet.full(n))
            assert better >= base - 1e-9
