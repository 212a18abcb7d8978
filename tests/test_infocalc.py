import math

import numpy as np
import pytest

from nncbound.errors import EvaluationError, SchemaError
from nncbound.infocalc import (
    CodingDistribution,
    EntropyCache,
    JointDistribution,
    assemble_joint,
    conditional_mi,
    constant_compression,
    copy_compression,
    entropy,
    gauss_cut_rate,
    gauss_cut_rates,
    gauss_logdet_general,
    joint_from_inputs,
    joint_with_product_inputs,
    uniform_inputs,
)
from nncbound.netmodel import DmNetwork, GaussianNetwork, NodeSet

from helpers import (
    cmi_oracle,
    dests_tuple,
    entropy_oracle,
    h2,
    rand_channel,
    rand_design,
    rand_dm_network,
    rand_rows,
)


def rand_joint(rng, sizes, labels=None):
    if labels is None:
        labels = tuple(f"V{i}" for i in range(len(sizes)))
    p = rng.random(sizes) + 0.01
    return JointDistribution(tuple(labels), p / p.sum())


# ---------------------------------------------------------------------------
# JointDistribution


class TestJointDistribution:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            JointDistribution(("A", "A"), np.full((2, 2), 0.25))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            JointDistribution(("A",), np.full((2, 2), 0.25))

    def test_negative_rejected(self):
        with pytest.raises(SchemaError):
            JointDistribution(("A",), np.array([1.5, -0.5]))

    def test_sum_tolerance(self):
        JointDistribution(("A",), np.array([0.5, 0.5 + 5e-11]))
        with pytest.raises(SchemaError):
            JointDistribution(("A",), np.array([0.5, 0.51]))

    def test_axis_and_card(self):
        j = rand_joint(np.random.default_rng(0), (2, 3), ("A", "B"))
        assert j.axis("B") == 1
        assert j.card("B") == 3
        with pytest.raises(SchemaError):
            j.axis("C")

    def test_marginal_matches_manual_sum(self):
        rng = np.random.default_rng(1)
        j = rand_joint(rng, (2, 3, 4), ("A", "B", "C"))
        np.testing.assert_allclose(j.marginal(["B"]), j.probs.sum(axis=(0, 2)))
        # order of the request does not matter; axes come out in joint order
        np.testing.assert_allclose(
            j.marginal(["C", "A"]), j.probs.sum(axis=1)
        )


# ---------------------------------------------------------------------------
# entropy and conditional MI


class TestEntropy:
    def test_uniform(self):
        j = JointDistribution(("A",), np.full(8, 1.0 / 8))
        assert entropy(j, ["A"]) == pytest.approx(3.0)

    def test_empty_label_set(self):
        j = JointDistribution(("A",), np.array([0.5, 0.5]))
        assert entropy(j, []) == 0.0

    def test_against_plain_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            j = rand_joint(rng, (2, 3, 2))
            for labels in (["V0"], ["V0", "V2"], ["V0", "V1", "V2"]):
                assert entropy(j, labels) == pytest.approx(
                    entropy_oracle(j, labels), abs=1e-12
                )

    def test_deterministic_variable_has_zero_entropy(self):
        j = JointDistribution(("A", "B"), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert entropy(j, ["A"]) == pytest.approx(1.0)
        # H(A,B) = H(A) since B == A
        assert entropy(j, ["A", "B"]) == pytest.approx(1.0)


class TestConditionalMi:
    def test_bsc_closed_form(self):
        p = 0.11
        j = JointDistribution(
            ("X", "Y"),
            np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]]),
        )
        assert conditional_mi(j, ["X"], ["Y"]) == pytest.approx(1.0 - h2(p), abs=1e-12)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ndim = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(ndim))
            j = rand_joint(rng, sizes)
            labs = list(j.labels)
            rng.shuffle(labs)
            a, b = [labs[0]], [labs[1]]
            c = labs[2:]
            assert conditional_mi(j, a, b, c) == pytest.approx(
                cmi_oracle(j, a, b, c), abs=1e-10
            )

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        j = rand_joint(rng, (2, 3, 2))
        assert conditional_mi(j, ["V0"], ["V1"], ["V2"]) == pytest.approx(
            conditional_mi(j, ["V1"], ["V0"], ["V2"]), abs=1e-12
        )

    def test_chain_rule(self):
        rng = np.random.default_rng(5)
        j = rand_joint(rng, (2, 2, 3))
        lhs = conditional_mi(j, ["V0"], ["V1", "V2"])
        rhs = conditional_mi(j, ["V0"], ["V1"]) + conditional_mi(
            j, ["V0"], ["V2"], ["V1"]
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_data_processing(self):
        # X -> Y -> Z Markov chain: I(X;Z) <= I(X;Y)
        rng = np.random.default_rng(6)
        px = rand_rows(rng, (3,))
        pyx = rand_rows(rng, (3, 3))
        pzy = rand_rows(rng, (3, 3))
        p = px[:, None, None] * pyx[:, :, None] * pzy[None, :, :]
        j = JointDistribution(("X", "Y", "Z"), p)
        assert conditional_mi(j, ["X"], ["Z"]) <= conditional_mi(j, ["X"], ["Y"]) + 1e-10
        # and I(X;Z|Y) = 0 by construction
        assert conditional_mi(j, ["X"], ["Z"], ["Y"]) == pytest.approx(0.0, abs=1e-9)

    def test_empty_sides_are_zero(self):
        j = rand_joint(np.random.default_rng(7), (2, 2))
        assert conditional_mi(j, [], ["V1"]) == 0.0
        assert conditional_mi(j, ["V0"], []) == 0.0

    def test_overlap_rejected(self):
        j = rand_joint(np.random.default_rng(8), (2, 2))
        with pytest.raises(SchemaError, match="disjoint"):
            conditional_mi(j, ["V0"], ["V0"])
        with pytest.raises(SchemaError, match="disjoint"):
            conditional_mi(j, ["V0"], ["V1"], ["V1"])

    def test_unknown_label_rejected(self):
        j = rand_joint(np.random.default_rng(9), (2, 2))
        with pytest.raises(SchemaError):
            conditional_mi(j, ["V0"], ["nope"])

    def test_independent_variables_clamp_to_zero(self):
        j = JointDistribution(("A", "B"), np.full((2, 2), 0.25))
        assert conditional_mi(j, ["A"], ["B"]) == 0.0

    def test_cache_agrees_with_function(self):
        rng = np.random.default_rng(10)
        j = rand_joint(rng, (2, 2, 2, 2))
        cache = EntropyCache(j)
        for _ in range(10):
            labs = list(j.labels)
            rng.shuffle(labs)
            a, b, c = [labs[0]], [labs[1]], labs[2:]
            assert cache.cmi(a, b, c) == conditional_mi(j, a, b, c)

    def test_cache_memoizes(self):
        j = rand_joint(np.random.default_rng(11), (2, 2, 2))
        cache = EntropyCache(j)
        cache.cmi(["V0"], ["V1"], ["V2"])
        n_before = len(cache._h)
        cache.cmi(["V1"], ["V0"], ["V2"])  # same four entropies
        assert len(cache._h) == n_before


# ---------------------------------------------------------------------------
# coding distributions and joint assembly


class TestCodingDistribution:
    def test_uniform_copy_roundtrip(self):
        rng = np.random.default_rng(12)
        net = rand_dm_network(rng, (2, 3), (3, 2), dests_tuple(2, [2], []))
        dist = CodingDistribution.uniform_copy(net, nq=2)
        assert dist.n_nodes == 2
        assert dist.nq == 2
        assert dist.yhat_sizes == (3, 2)
        assert not dist.superposition

    def test_bad_rows_rejected(self):
        with pytest.raises(SchemaError, match="input pmf"):
            CodingDistribution(
                np.ones(1),
                (np.array([[0.5, 0.6]]),),
                (np.ones((1, 2, 2, 1)),),
            )

    def test_q_pmf_must_be_vector(self):
        with pytest.raises(SchemaError):
            CodingDistribution(
                np.ones((1, 1)), (np.ones((1, 1)),), (np.ones((1, 1, 1, 1)),)
            )

    def test_u_sizes_only_for_superposition(self):
        dist = CodingDistribution(
            np.ones(1), (np.ones((1, 1)),), (np.ones((1, 1, 1, 1)),)
        )
        with pytest.raises(SchemaError):
            dist.u_sizes

    def test_superposition_shapes(self):
        rng = np.random.default_rng(13)
        inp = rand_rows(rng, (1, 6)).reshape(1, 2, 3)  # joint row over (u, x)
        comp = rand_rows(rng, (1, 2, 2, 2))
        dist = CodingDistribution(np.ones(1), (inp,), (comp,), superposition=True)
        assert dist.u_sizes == (2,)


class TestAssembleJoint:
    def test_total_probability(self):
        rng = np.random.default_rng(14)
        net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
        j = assemble_joint(net, rand_design(rng, net, nq=2))
        assert j.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_input_marginals_preserved(self):
        rng = np.random.default_rng(15)
        net = rand_dm_network(rng, (2, 3), (2, 2), dests_tuple(2, [2], []))
        dist = rand_design(rng, net, nq=2)
        j = assemble_joint(net, dist)
        for k in (1, 2):
            got = j.marginal(["Q", f"X{k}"])
            want = dist.q_pmf[:, None] * dist.input_pmfs[k - 1]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_conditional_recovered(self):
        rng = np.random.default_rng(16)
        net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
        dist = rand_design(rng, net)
        j = assemble_joint(net, dist)
        pxy = j.marginal(["X1", "X2", "Y1", "Y2"])
        px = pxy.sum(axis=(2, 3))
        np.testing.assert_allclose(pxy, px[:, :, None, None] * net.channel, atol=1e-12)

    def test_copy_compression_copies(self):
        rng = np.random.default_rng(17)
        net = rand_dm_network(rng, (2,), (3,), dests_tuple(1, []))
        dist = CodingDistribution.uniform_copy(net)
        j = assemble_joint(net, dist)
        m = j.marginal(["Y1", "Yh1"])
        assert np.all(m[~np.eye(3, dtype=bool)] == 0.0)

    def test_constant_compression_is_deterministic(self):
        rng = np.random.default_rng(18)
        net = rand_dm_network(rng, (2,), (3,), dests_tuple(1, []))
        dist = CodingDistribution(
            np.ones(1), uniform_inputs(net.x_sizes, 1), constant_compression(net, 1)
        )
        j = assemble_joint(net, dist)
        assert entropy(j, ["Yh1"]) == 0.0

    def test_superposition_with_diagonal_u_collapses_to_plain(self):
        rng = np.random.default_rng(19)
        net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
        plain = rand_design(rng, net)
        sup_inputs = []
        sup_comps = []
        for k in range(2):
            px = plain.input_pmfs[k]  # (1, |X|)
            diag = np.zeros((1, 2, 2))
            diag[0] = np.diag(px[0])  # U = X
            sup_inputs.append(diag)
            sup_comps.append(plain.compression[k])  # (1,|Y|,|X|,|Yh|) == (..,|U|,..)
        sup = CodingDistribution(
            np.ones(1), tuple(sup_inputs), tuple(sup_comps), superposition=True
        )
        jp = assemble_joint(net, plain)
        js = assemble_joint(net, sup)
        got = js.marginal(["Q", "X1", "X2", "Y1", "Y2", "Yh1", "Yh2"])
        np.testing.assert_allclose(got, jp.probs, atol=1e-12)

    def test_node_count_mismatch(self):
        rng = np.random.default_rng(20)
        net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
        one_node = rand_dm_network(rng, (2,), (2,), dests_tuple(1, []))
        with pytest.raises(SchemaError):
            assemble_joint(net, rand_design(rng, one_node))

    def test_alphabet_mismatch(self):
        rng = np.random.default_rng(21)
        net = rand_dm_network(rng, (2,), (2,), dests_tuple(1, []))
        other = rand_dm_network(rng, (3,), (2,), dests_tuple(1, []))
        with pytest.raises(SchemaError, match="input pmf"):
            assemble_joint(net, rand_design(rng, other))


class TestInputJoints:
    def test_correlated_inputs_preserved(self):
        rng = np.random.default_rng(22)
        net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
        x = np.array([[0.4, 0.1], [0.1, 0.4]])
        j = joint_from_inputs(net, x)
        np.testing.assert_allclose(j.marginal(["X1", "X2"]), x, atol=1e-12)

    def test_shape_checked(self):
        rng = np.random.default_rng(23)
        net = rand_dm_network(rng, (2, 2), (2, 2), dests_tuple(2, [2], []))
        with pytest.raises(SchemaError):
            joint_from_inputs(net, np.full((2, 3), 1.0 / 6))

    def test_product_inputs_match_general_assembly(self):
        rng = np.random.default_rng(24)
        net = rand_dm_network(rng, (2, 3), (2, 2), dests_tuple(2, [2], []))
        q = rand_rows(rng, (2,))
        pmfs = [rand_rows(rng, (2, 2)), rand_rows(rng, (2, 3))]
        jq = joint_with_product_inputs(net, q, pmfs)
        # marginalize Q out and compare against the mixed joint input
        mixed = np.einsum("q,qa,qb->ab", q, pmfs[0], pmfs[1])
        np.testing.assert_allclose(jq.marginal(["X1", "X2"]), mixed, atol=1e-12)


# ---------------------------------------------------------------------------
# Gaussian helpers


class TestGaussLogdet:
    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            a = rng.normal(size=(n, n))
            m = a @ a.T + 0.5 * np.eye(n)
            want = float(np.log2(np.linalg.eigvalsh(m)).sum())
            assert gauss_logdet_general(m) == pytest.approx(want, abs=1e-9)

    def test_identity(self):
        assert gauss_logdet_general(np.eye(4)) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(SchemaError):
            gauss_logdet_general(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_not_positive_definite_rejected(self):
        with pytest.raises(EvaluationError):
            gauss_logdet_general(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(27)
        a = rng.normal(size=(5, 3, 3))
        stack = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(3)
        got = gauss_logdet_general(stack)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        for m, v in zip(stack, got):
            assert isinstance(gauss_logdet_general(m), float)
            assert v == gauss_logdet_general(m)
        assert gauss_logdet_general(stack.reshape(5, 1, 3, 3)).shape == (5, 1)

    def test_stack_with_one_asymmetric_matrix_rejected(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)])
        with pytest.raises(SchemaError, match="not symmetric"):
            gauss_logdet_general(stack)

    def test_stack_with_one_indefinite_matrix_rejected(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)])
        with pytest.raises(EvaluationError, match="not positive definite"):
            gauss_logdet_general(stack)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(SchemaError, match="square"):
            gauss_logdet_general(np.ones(shape))


class TestGaussCutRate:
    def _net(self, gains, power=4.0):
        n = gains.shape[0]
        return GaussianNetwork(gains, power, tuple(NodeSet.full(n) for _ in range(n)))

    def test_single_sender_closed_form(self):
        g = np.array([[0.0, 1.5, 0.7], [0.2, 0.0, 0.1], [0.3, 0.4, 0.0]])
        net = self._net(g, power=4.0)
        got = gauss_cut_rate(net, NodeSet.of(3, 1))
        # rank-one case: (1/2) log2(1 + (P/2) * sum of squared out-gains)
        want = 0.5 * math.log2(1.0 + 2.0 * (1.5**2 + 0.7**2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_sylvester_identity(self):
        # det(I + c G G^T) == det(I + c G^T G): both cut orientations of the
        # same block give consistent values when computed either way.
        rng = np.random.default_rng(26)
        g = rng.normal(size=(4, 4))
        np.fill_diagonal(g, 0.0)
        net = self._net(g, power=3.0)
        cut = NodeSet.of(4, 1, 3)
        block = g[np.ix_([0, 2], [1, 3])].T
        direct = 0.5 * float(
            np.log2(np.linalg.det(np.eye(2) + 1.5 * block @ block.T))
        )
        flipped = 0.5 * float(
            np.log2(np.linalg.det(np.eye(2) + 1.5 * block.T @ block))
        )
        got = gauss_cut_rate(net, cut)
        assert got == pytest.approx(direct, abs=1e-10)
        assert got == pytest.approx(flipped, abs=1e-10)

    def test_improper_cut_rejected(self):
        net = self._net(np.zeros((3, 3)))
        with pytest.raises(SchemaError):
            gauss_cut_rate(net, NodeSet.empty(3))
        with pytest.raises(SchemaError):
            gauss_cut_rate(net, NodeSet.full(3))

    def test_universe_mismatch_rejected(self):
        net = self._net(np.zeros((3, 3)))
        with pytest.raises(SchemaError):
            gauss_cut_rate(net, NodeSet.of(4, 1))


def _all_cuts(n):
    return [NodeSet(n, mask) for mask in range(1, 2**n - 1)]


def _masks(cuts):
    return np.array([cut.mask for cut in cuts], dtype=np.int64)


def _receiver_side_flow(gains, power, cut):
    """Independent oracle: slogdet of I + (P/2) G G^T with G the
    receiver-side block (receivers outside the cut, senders inside)."""
    s = [k - 1 for k in cut]
    c = [k - 1 for k in cut.complement()]
    g = gains[np.ix_(s, c)].T
    sign, logdet = np.linalg.slogdet(np.eye(len(c)) + (power / 2.0) * (g @ g.T))
    assert sign > 0
    return 0.5 * logdet / math.log(2.0)


class TestGaussCutRates:
    def _net(self, rng, n, power):
        g = rng.normal(size=(n, n))
        np.fill_diagonal(g, 0.0)
        return GaussianNetwork(g, power, tuple(NodeSet.full(n) for _ in range(n)))

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_every_cut_matches_receiver_side_slogdet(self, n):
        rng = np.random.default_rng(28 + n)
        net = self._net(rng, n, 10.0)
        cuts = _all_cuts(n)
        got = gauss_cut_rates(net, _masks(cuts))
        assert got.shape == (len(cuts),)
        sides = set()
        for cut, v in zip(cuts, got):
            want = _receiver_side_flow(net.gains, net.power, cut)
            assert abs(v - want) <= 1e-12 * abs(want)
            sides.add(np.sign(len(cut) - (n - len(cut))))
        # cuts smaller than, equal to and larger than their complement all
        # occur where n allows, so every Gram side is exercised
        assert sides == ({0} if n == 2 else {-1, 0, 1} if n % 2 == 0 else {-1, 1})

    def test_single_cut_equals_batched_entry_exactly(self):
        rng = np.random.default_rng(29)
        net = self._net(rng, 7, 3.0)
        cuts = _all_cuts(7)
        batched = gauss_cut_rates(net, _masks(cuts))
        for cut, v in zip(cuts, batched):
            assert gauss_cut_rate(net, cut) == v

    def test_order_and_batch_split_do_not_change_values(self):
        # at 12 nodes the 924 cuts of size 6 span several stacked batches
        rng = np.random.default_rng(30)
        net = self._net(rng, 12, 10.0)
        cuts = _all_cuts(12)
        base = gauss_cut_rates(net, _masks(cuts))
        perm = rng.permutation(len(cuts))
        shuffled = gauss_cut_rates(net, _masks(cuts)[perm])
        np.testing.assert_array_equal(shuffled, base[perm])

    def test_no_cuts_gives_empty_array(self):
        net = self._net(np.random.default_rng(31), 3, 1.0)
        assert gauss_cut_rates(net, []).shape == (0,)

    def test_any_improper_cut_rejected(self):
        net = self._net(np.random.default_rng(32), 3, 1.0)
        with pytest.raises(SchemaError, match="nonempty proper subset"):
            gauss_cut_rates(net, _masks([NodeSet.of(3, 1), NodeSet.full(3)]))
        with pytest.raises(SchemaError, match="universe"):
            gauss_cut_rates(net, _masks([NodeSet.of(3, 1), NodeSet.of(4, 4)]))
        with pytest.raises(SchemaError, match="universe"):
            gauss_cut_rate(net, NodeSet.of(4, 1))
