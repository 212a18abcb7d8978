"""The factored joints against dense joints built by explicit broadcasting.

Every discrete bound evaluator is run twice on the same seeded inputs:
once as shipped (factor lists, marginals contracted on demand) and once
with its joint builders swapped for the test-local dense builders of
``helpers``.  The reports must agree to 1e-12.
"""

import math

import numpy as np
import pytest

from nncbound import dm_bounds
from nncbound.dm_bounds import (
    DeterministicNetwork,
    cf_extension_bound,
    cutset_outer_bound,
    deterministic_region,
    nnc_multicast_bound,
    nnc_theorem2_bound,
    nnc_theorem3_bound,
    relay_cf_emz,
)
from nncbound.errors import EvaluationError, SchemaError
from nncbound.infocalc import (
    EntropyCache,
    Factor,
    JointDistribution,
    assemble_joint,
)
from nncbound.netmodel import MAX_STATES, NodeSet

from helpers import (
    dense_assemble_joint,
    dense_joint_from_inputs,
    dense_joint_with_product_inputs,
    dests_tuple,
    rand_design,
    rand_dm_network,
    rand_rows,
    rand_superposition_design,
)

TOL = 1e-12

# (x_sizes, y_sizes, yhat_sizes, |Q|): n = 2..5, non-binary alphabets,
# |Q| = 1 and 2, and a size-1 compressed output in each.
CASES = [
    ((3, 2), (2, 3), (1, 2), 2),
    ((2, 2, 2), (2, 3, 2), (2, 1, 2), 1),
    ((2, 3, 2, 2), (2, 2, 2, 3), (2, 2, 1, 2), 2),
    ((2, 2, 2, 2, 2), (2, 2, 3, 2, 2), (1, 2, 2, 2, 2), 2),
]
IDS = [f"n{len(c[0])}" for c in CASES]


@pytest.fixture
def dense(monkeypatch):
    """Run the evaluators on dense joints instead of factor lists."""

    def use():
        monkeypatch.setattr(dm_bounds, "assemble_joint", dense_assemble_joint)
        monkeypatch.setattr(dm_bounds, "joint_from_inputs", dense_joint_from_inputs)
        monkeypatch.setattr(
            dm_bounds, "joint_with_product_inputs", dense_joint_with_product_inputs
        )

    return use


def rand_dests(rng, n):
    """Per-node destination sets: a random nonempty set of other nodes."""
    out = []
    for k in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != k]
        pick = [j for j in others if rng.random() < 0.5] or [others[0]]
        out.append(pick)
    return dests_tuple(n, *out)


def setup_case(case, seed):
    x_sizes, y_sizes, yhat_sizes, nq = case
    rng = np.random.default_rng(seed)
    net = rand_dm_network(rng, x_sizes, y_sizes, rand_dests(rng, len(x_sizes)))
    return rng, net, rand_design(rng, net, nq=nq, yhat_sizes=yhat_sizes)


def assert_reports_agree(got, want):
    assert got.bound == want.bound
    assert len(got.entries) == len(want.entries)
    for g, w in zip(got.entries, want.entries):
        assert (g.cutset, g.dest, g.rate_set) == (w.cutset, w.dest, w.rate_set)
        for field in ("raw", "flow_term", "penalty_term"):
            assert abs(getattr(g, field) - getattr(w, field)) <= TOL, (g, w)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_theorem2_and_multicast(case, dense):
    _, net, dist = setup_case(case, 100 + len(case[0]))
    multicast = NodeSet.full(net.n_nodes).remove(1)
    got2 = nnc_theorem2_bound(net, dist)
    got1 = nnc_multicast_bound(net, dist, multicast)
    dense()
    assert_reports_agree(got2, nnc_theorem2_bound(net, dist))
    assert_reports_agree(got1, nnc_multicast_bound(net, dist, multicast))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_theorem3(case, dense):
    rng, net, _ = setup_case(case, 200 + len(case[0]))
    # Binary layers at every node up to n = 4; at n = 5 at node 1 only,
    # which keeps the dense oracle small.
    u_sizes = [2] * net.n_nodes if net.n_nodes < 5 else [2, 1, 1, 1, 1]
    dist = rand_superposition_design(rng, net, u_sizes, nq=case[3], yhat_sizes=case[2])
    got = nnc_theorem3_bound(net, dist)
    dense()
    assert_reports_agree(got, nnc_theorem3_bound(net, dist))


def test_relay_cf_emz(dense):
    _, net, dist = setup_case(CASES[1], 300)
    got = relay_cf_emz(net, dist)
    dense()
    assert abs(got - relay_cf_emz(net, dist)) <= TOL


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cf_extension(case, dense):
    x_sizes, y_sizes, yhat_sizes, nq = case
    n = len(x_sizes)
    rng = np.random.default_rng(400 + n)
    dests = dests_tuple(n, [n] if n == 2 else [2, n], *([[]] * (n - 1)))
    net = rand_dm_network(rng, x_sizes, y_sizes, dests)
    dist = rand_design(rng, net, nq=nq, yhat_sizes=yhat_sizes)
    got = cf_extension_bound(net, dist)
    dense()
    want = cf_extension_bound(net, dist)
    assert got.feasible == want.feasible
    assert abs(got.rate - want.rate) <= TOL
    for g, w in zip(got.constraints, want.constraints, strict=True):
        assert (g.group, g.dest) == (w.group, w.dest)
        assert abs(g.description_cost - w.description_cost) <= TOL
        assert abs(g.flow - w.flow) <= TOL


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cutset_single_member_and_family(case, dense):
    rng, net, _ = setup_case(case, 500 + len(case[0]))
    family = [rand_rows(rng, (math.prod(net.x_sizes),)).reshape(net.x_sizes)
              for _ in range(3)]
    got_one = cutset_outer_bound(net, family[0])
    got_all = cutset_outer_bound(net, family)
    dense()
    assert_reports_agree(got_one, cutset_outer_bound(net, family[0]))
    assert_reports_agree(got_all, cutset_outer_bound(net, family))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_deterministic_region(case, dense):
    x_sizes, y_sizes, _, nq = case
    n = len(x_sizes)
    rng = np.random.default_rng(600 + n)
    outputs = tuple(rng.integers(0, y, size=x_sizes) for y in y_sizes)
    net = DeterministicNetwork(x_sizes, y_sizes, outputs, rand_dests(rng, n))
    q = rand_rows(rng, (nq,))
    pmfs = [rand_rows(rng, (nq, x)) for x in x_sizes]
    got = deterministic_region(net, q, pmfs)
    dense()
    want = deterministic_region(net, q, pmfs)
    assert got.constraints.keys() == want.constraints.keys()
    for s in want.constraints:
        assert abs(got.constraints[s] - want.constraints[s]) <= TOL


# ---------------------------------------------------------------------------
# scale: the joint is never formed, each marginal is capped


def binary_n8():
    n = 8
    rng = np.random.default_rng(800)
    net = rand_dm_network(rng, (2,) * n, (2,) * n,
                          dests_tuple(n, *([[n]] * (n - 1) + [[]])))
    return net, assemble_joint(net, rand_design(rng, net, nq=2))


def test_binary_n8_with_two_time_shares_evaluates_a_cut():
    # 2^25 joint states: over MAX_STATES as one tensor, but no factor is.
    net, joint = binary_n8()
    assert 2 * 4**8 * 2**8 > MAX_STATES
    cache = EntropyCache(joint)
    s = NodeSet.of(8, 1)
    sc = s.complement()
    xs = [f"X{k}" for k in range(1, 9)]
    flow = cache.cmi(["X1"], [f"Yh{k}" for k in sc] + ["Y8"],
                     [f"X{k}" for k in sc] + ["Q"])
    penalty = cache.cmi(["Y1"], ["Yh1"],
                        xs + [f"Yh{k}" for k in sc] + ["Y8", "Q"])
    assert math.isfinite(flow - penalty)
    assert 0.0 <= flow <= 1.0


def test_marginal_over_the_limit_names_its_state_count():
    _, joint = binary_n8()
    with pytest.raises(SchemaError, match=f"marginal state count {2**25} exceeds"):
        joint.marginal(joint.labels)


# ---------------------------------------------------------------------------
# factor lists


def test_barren_compressor_and_channel_reduction():
    rng = np.random.default_rng(900)
    net = rand_dm_network(rng, (2, 3), (3, 2), dests_tuple(2, [2], []))
    dist = rand_design(rng, net, nq=2, yhat_sizes=(2, 1))
    joint = assemble_joint(net, dist)
    ref = dense_assemble_joint(net, dist)
    for labels in (["Q"], ["X2", "Y1"], ["Yh1"], ["Y2", "Yh2", "Q"],
                   ["X1", "Yh1", "Yh2"]):
        np.testing.assert_allclose(joint.marginal(labels), ref.marginal(labels),
                                   rtol=0, atol=1e-15)
    np.testing.assert_allclose(joint.probs, ref.probs, rtol=0, atol=1e-15)


def test_factor_list_is_validated():
    a = Factor(np.array([0.25, 0.75]), ("A",), {"A"})
    b_given_a = Factor(np.array([[0.5, 0.5], [1.0, 0.0]]), ("A", "B"), {"B"})
    j = JointDistribution(("A", "B"), factors=[a, b_given_a])
    np.testing.assert_allclose(j.probs, [[0.125, 0.125], [0.75, 0.0]])
    assert j.card("B") == 2
    with pytest.raises(SchemaError, match="earlier factor"):
        JointDistribution(("A", "B"), factors=[b_given_a, a])
    with pytest.raises(SchemaError, match="child of two factors"):
        JointDistribution(("A",), factors=[a, a])
    with pytest.raises(SchemaError, match="cover"):
        JointDistribution(("A", "B", "C"), factors=[a, b_given_a])
    with pytest.raises(SchemaError, match="sums to"):
        Factor(np.array([[0.5, 0.6], [1.0, 0.0]]), ("A", "B"), {"B"})
    with pytest.raises(SchemaError, match="size 3"):
        JointDistribution(("A", "B"), factors=[
            a, Factor(np.full((3, 2), 0.5), ("A", "B"), {"B"})])


def test_negative_cmi_names_bound_cut_and_destination(monkeypatch):
    rng = np.random.default_rng(901)
    net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
    dist = rand_design(rng, net)

    def tampered(net, dist):
        joint = assemble_joint(net, dist)
        # After validation: node 1's compressor no longer sums to 1, so
        # marginals that keep it and marginals that drop it disagree.
        joint.factors[2].array[...] *= 4.0
        return joint

    monkeypatch.setattr(dm_bounds, "assemble_joint", tampered)
    with pytest.raises(EvaluationError, match=r"thm2: cut \{1\} \(mask 1\), destination 2"):
        nnc_theorem2_bound(net, dist)
