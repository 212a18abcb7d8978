import json

import numpy as np
import pytest

from nncbound.configio import (
    load_distribution,
    load_input_family,
    load_network,
    parse_node_set,
)
from nncbound.dm_bounds import (
    DeterministicNetwork,
    ErasureNetwork,
    NoiselessNetwork,
)
from nncbound.errors import SchemaError
from nncbound.netmodel import DmNetwork, GaussianNetwork, NodeSet

from helpers import rand_channel


def dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def dm_payload(chan=None):
    if chan is None:
        chan = [[[0.9, 0.1], [0.1, 0.9]]]  # shape (2,1) x (1,2) packed nested
        chan = [
            [[[0.9, 0.1]]],
            [[[0.1, 0.9]]],
        ]
    return {
        "format": "dm",
        "x_sizes": [2, 1],
        "y_sizes": [1, 2],
        "channel": chan,
        "dests": [[2], []],
    }


class TestLoadNetwork:
    def test_gaussian_roundtrip(self, tmp_path):
        p = dump(tmp_path, "g.json", {
            "format": "gaussian",
            "gains": [[0.0, 1.0], [0.5, 0.0]],
            "power": 2.5,
            "dests": [[2], []],
        })
        net = load_network(p)
        assert isinstance(net, GaussianNetwork)
        assert net.power == 2.5
        assert net.gains[1, 0] == 0.5
        assert net.dests[0] == NodeSet.of(2, 2)

    def test_dm_roundtrip_nested_and_flat(self, tmp_path):
        nested = dump(tmp_path, "dm1.json", dm_payload())
        flat = dump(tmp_path, "dm2.json", {
            **dm_payload(), "channel": [0.9, 0.1, 0.1, 0.9],
        })
        n1 = load_network(nested)
        n2 = load_network(flat)
        assert isinstance(n1, DmNetwork)
        np.testing.assert_allclose(n1.channel, n2.channel)

    def test_dm_rows_span_all_output_axes(self, tmp_path):
        # each input row must sum to 1 over the joint outputs, not per axis
        p = dump(tmp_path, "dm.json", {
            "format": "dm",
            "x_sizes": [2],
            "y_sizes": [2, 2] if False else [4],
            "channel": [0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.0, 0.0],
            "dests": [[]],
        })
        net = load_network(p)
        assert net.channel.shape == (2, 4)

    def test_noiseless_roundtrip(self, tmp_path):
        p = dump(tmp_path, "nl.json", {
            "format": "noiseless",
            "n_nodes": 3,
            "links": [
                {"sender": 1, "receiver": 2, "capacity": 1.0},
                {"sender": 2, "receiver": 3, "capacity": 2.0},
            ],
            "dests": [[3], [], []],
        })
        net = load_network(p)
        assert isinstance(net, NoiselessNetwork)
        assert len(net.links) == 2
        assert net.links[1].capacity == 2.0

    def test_noiseless_missing_link_key(self, tmp_path):
        p = dump(tmp_path, "nl.json", {
            "format": "noiseless",
            "n_nodes": 2,
            "links": [{"sender": 1, "capacity": 1.0}],
            "dests": [[2], []],
        })
        with pytest.raises(SchemaError, match="links\\[0\\]"):
            load_network(p)

    def test_erasure_matrix_mode(self, tmp_path):
        p = dump(tmp_path, "er.json", {
            "format": "erasure",
            "x_sizes": [2, 1],
            "link_erasure": [[0.0, 0.3], [0.0, 0.0]],
            "dests": [[2], []],
        })
        net = load_network(p)
        assert isinstance(net, ErasureNetwork)
        assert net.link_erasure[0, 1] == 0.3

    def test_erasure_table_mode(self, tmp_path):
        p = dump(tmp_path, "er.json", {
            "format": "erasure",
            "x_sizes": [2, 1],
            "all_erased": [{"sender": 1, "receivers": [2], "prob": 0.25}],
            "dests": [[2], []],
        })
        net = load_network(p)
        assert net.all_erased == {(1, 0b10): 0.25}

    def test_erasure_modes_mutually_exclusive(self, tmp_path):
        base = {
            "format": "erasure", "x_sizes": [2, 1], "dests": [[2], []],
        }
        with pytest.raises(SchemaError, match="exactly one"):
            load_network(dump(tmp_path, "a.json", base))
        both = {
            **base,
            "link_erasure": [[0.0, 0.0], [0.0, 0.0]],
            "all_erased": [],
        }
        with pytest.raises(SchemaError, match="exactly one"):
            load_network(dump(tmp_path, "b.json", both))

    def test_deterministic_roundtrip_flat_tables(self, tmp_path):
        p = dump(tmp_path, "det.json", {
            "format": "deterministic",
            "x_sizes": [2, 2],
            "y_sizes": [2, 2],
            "outputs": [[0, 1, 1, 0], [[0, 0], [1, 1]]],
            "dests": [[2], [1]],
        })
        net = load_network(p)
        assert isinstance(net, DeterministicNetwork)
        assert net.outputs[0][0, 1] == 1
        assert net.outputs[1][1, 0] == 1

    @pytest.mark.parametrize("bad", [0.5, "1", float("nan")])
    def test_deterministic_non_integer_output_rejected(self, tmp_path, bad):
        # a cast to int would silently turn 0.5 into 0
        p = dump(tmp_path, "det.json", {
            "format": "deterministic",
            "x_sizes": [2, 2],
            "y_sizes": [2, 2],
            "outputs": [[0, 1, 1, 0], [[0, 0], [bad, 1]]],
            "dests": [[2], [1]],
        })
        with pytest.raises(SchemaError, match=r"outputs\[1\] entries must be integers"):
            load_network(p)

    def test_deterministic_boolean_output_rejected(self, tmp_path):
        # numpy upcasts [0, true] to [0, 1] before a dtype check sees it
        p = dump(tmp_path, "det.json", {
            "format": "deterministic",
            "x_sizes": [2],
            "y_sizes": [2],
            "outputs": [[0, True]],
            "dests": [[1]],
        })
        with pytest.raises(SchemaError, match=r"outputs\[0\] entries must be integers"):
            load_network(p)

    @pytest.mark.parametrize("key", ["x_sizes", "y_sizes"])
    @pytest.mark.parametrize("bad", [2.5, True, 0, -1, "2", None, float("inf")])
    def test_dm_alphabet_size_must_be_integer_at_least_one(self, tmp_path, key, bad):
        # int() would turn 2.5 into 2; 0 used to escape as a ValueError
        payload = dm_payload()
        payload[key] = [bad, payload[key][1]]
        p = dump(tmp_path, "dm.json", payload)
        with pytest.raises(SchemaError, match=rf"{key}\[0\] must be an integer >= 1"):
            load_network(p)

    def test_dm_integral_float_alphabet_size_accepted(self, tmp_path):
        p = dump(tmp_path, "dm.json", {**dm_payload(), "x_sizes": [2.0, 1]})
        assert load_network(p).x_sizes == (2, 1)

    def test_deterministic_integral_float_output_accepted(self, tmp_path):
        p = dump(tmp_path, "det.json", {
            "format": "deterministic",
            "x_sizes": [2],
            "y_sizes": [2],
            "outputs": [[1.0, 0.0]],
            "dests": [[1]],
        })
        net = load_network(p)
        assert net.outputs[0].tolist() == [1, 0]

    def test_unknown_format(self, tmp_path):
        p = dump(tmp_path, "x.json", {"format": "quantum"})
        with pytest.raises(SchemaError, match="unknown format"):
            load_network(p)

    def test_missing_format_key(self, tmp_path):
        p = dump(tmp_path, "x.json", {"gains": [[0.0]]})
        with pytest.raises(SchemaError, match="missing required key"):
            load_network(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_network(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_network(p)

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError, match="JSON object"):
            load_network(p)

    def test_row_sum_tolerance(self, tmp_path):
        # 5e-10 off: accepted and renormalized exactly
        ok = dm_payload(chan=[0.9, 0.1 + 5e-10, 0.1, 0.9])
        net = load_network(dump(tmp_path, "ok.json", ok))
        sums = net.channel.reshape(2, -1).sum(axis=1)
        np.testing.assert_array_equal(sums, [1.0, 1.0])
        # 1e-8 off: rejected, row named
        bad = dm_payload(chan=[0.9, 0.1 + 1e-8, 0.1, 0.9])
        with pytest.raises(SchemaError, match="row 0"):
            load_network(dump(tmp_path, "bad.json", bad))

    def test_negative_probability_rejected(self, tmp_path):
        bad = dm_payload(chan=[1.1, -0.1, 0.1, 0.9])
        with pytest.raises(SchemaError, match="negative"):
            load_network(dump(tmp_path, "neg.json", bad))

    def test_dests_must_list_per_node(self, tmp_path):
        bad = {**dm_payload(), "dests": [[2]]}
        with pytest.raises(SchemaError, match="dests"):
            load_network(dump(tmp_path, "d.json", bad))


def _gaussian(**kw):
    return {"format": "gaussian", "gains": [[0, 1], [1, 0]], "power": 5,
            "dests": [[2], []], **kw}


def _noiseless(link=None, **kw):
    link = {"sender": 1, "receiver": 2, "capacity": 1.0, **(link or {})}
    return {"format": "noiseless", "n_nodes": 2, "links": [link],
            "dests": [[2], []], **kw}


def _erasure_table(item=None, **kw):
    item = {"sender": 1, "receivers": [2], "prob": 0.5, **(item or {})}
    return {"format": "erasure", "x_sizes": [2, 2], "all_erased": [item],
            "dests": [[2], []], **kw}


def _erasure_matrix(mat):
    return {"format": "erasure", "x_sizes": [2, 2], "link_erasure": mat,
            "dests": [[2], []]}


def _deterministic(**kw):
    return {"format": "deterministic", "x_sizes": [2], "y_sizes": [2],
            "outputs": [[0, 1]], "dests": [[1]], **kw}


class TestMalformedFields:
    """Malformed numbers, node indices and containers raise SchemaError
    naming the field, never a TypeError/ValueError or a silent coercion."""

    @pytest.mark.parametrize("payload, field", [
        (_gaussian(gains=[[0, 1], [1]]), "gains"),
        (_gaussian(gains=[[0, "a"], [1, 0]]), "gains"),
        (_gaussian(gains=[[0, True], [1, 0]]), "gains"),
        (_gaussian(power=None), "power"),
        (_gaussian(power="5"), "power"),
        (_gaussian(power=True), "power"),
        (_gaussian(power=[5]), "power"),
        (_erasure_matrix([[0, "a"], [0, 0]]), "link_erasure"),
        (_erasure_matrix([[0, 0.5], [0]]), "link_erasure"),
        (_erasure_table({"prob": "0.5"}), r"all_erased\[0\]\.prob"),
        (_erasure_table({"prob": None}), r"all_erased\[0\]\.prob"),
        (_noiseless({"capacity": "1"}), r"links\[0\]\.capacity"),
        ({**dm_payload(), "channel": [0.9, 0.1, "a", 0.9]}, "channel"),
    ])
    def test_non_numeric_or_ragged_numbers(self, tmp_path, payload, field):
        with pytest.raises(SchemaError, match=field):
            load_network(dump(tmp_path, "net.json", payload))

    @pytest.mark.parametrize("payload, field", [
        (_gaussian(dests=[["2"], []]), r"dests\[0\]"),
        (_gaussian(dests=[[[2]], []]), r"dests\[0\]"),
        (_gaussian(dests=[[], [True]]), r"dests\[1\]"),
        (_gaussian(dests=[[2.5], []]), r"dests\[0\]"),
        (_gaussian(dests=[[3], []]), r"dests\[0\]"),
        (_erasure_table({"receivers": "2"}), r"all_erased\[0\]\.receivers"),
        (_erasure_table({"sender": "1"}), r"all_erased\[0\]\.sender"),
        (_erasure_table(all_erased=True), "all_erased"),
        (_erasure_table(all_erased=[5]), r"all_erased\[0\]"),
        (_noiseless(links=True), "links"),
        (_noiseless(links=[5]), r"links\[0\]"),
        (_noiseless(n_nodes=None), "n_nodes"),
        (_noiseless(n_nodes="2"), "n_nodes"),
        (_noiseless(n_nodes=2.5), "n_nodes"),
        (_noiseless({"sender": 1.5}), r"links\[0\]\.sender"),
        (_noiseless({"sender": True}), r"links\[0\]\.sender"),
        (_noiseless({"receiver": 3}), r"links\[0\]\.receiver"),
        (_deterministic(outputs=True), "outputs"),
        (_deterministic(outputs=[[[0, 1], [1]]]), r"outputs\[0\]"),
    ])
    def test_bad_node_or_container(self, tmp_path, payload, field):
        with pytest.raises(SchemaError, match=field):
            load_network(dump(tmp_path, "net.json", payload))

    @pytest.mark.parametrize("loader, payload, field", [
        (load_distribution, {"yhat_sizes": [1, 1.5], "compression": [[1.0] * 4] * 2},
         r"yhat_sizes\[1\]"),
        (load_distribution, {"yhat_sizes": [True, 1], "compression": [[1.0] * 4] * 2},
         r"yhat_sizes\[0\]"),
        (load_distribution, {"mode": "superposition", "u_sizes": [1.5, 1],
                             "input_pmfs": [[0.5, 0.5]] * 2}, r"u_sizes\[0\]"),
        (load_distribution, {"mode": "superposition", "u_sizes": 2,
                             "input_pmfs": [[0.5, 0.5]] * 2}, "u_sizes"),
        (load_distribution, {"input_pmfs": 5}, "input_pmfs"),
        (load_distribution, {"compression": 5}, "compression"),
        (load_distribution, {"compression": {"0": [1.0] * 8}}, "compression"),
        (load_input_family, {"joint_inputs": True}, "joint_inputs"),
        (load_input_family, {"joint_inputs": None}, "joint_inputs"),
        (load_input_family, {"joint_inputs": [{"a": 1}]}, r"joint_inputs\[0\]"),
    ])
    def test_bad_design_or_input_file(self, tmp_path, loader, payload, field):
        net = DmNetwork(
            (2, 2), (2, 2), rand_channel(np.random.default_rng(39), (2, 2), (2, 2)),
            (NodeSet.of(2, 2), NodeSet.empty(2)),
        )
        with pytest.raises(SchemaError, match=field):
            loader(dump(tmp_path, "d.json", payload), net)

    def test_integral_float_nodes_accepted(self, tmp_path):
        net = load_network(dump(tmp_path, "n.json", _noiseless(
            {"sender": 1.0, "receiver": 2.0}, n_nodes=2.0, dests=[[2.0], []],
        )))
        assert net.n_nodes == 2
        assert (net.links[0].sender, net.links[0].receiver) == (1, 2)
        assert net.dests[0] == NodeSet.of(2, 2)


class TestLoadDistribution:
    def _net(self, rng):
        return DmNetwork(
            (2, 2), (2, 2), rand_channel(rng, (2, 2), (2, 2)),
            (NodeSet.of(2, 2), NodeSet.empty(2)),
        )

    def test_all_defaults(self, tmp_path):
        rng = np.random.default_rng(31)
        net = self._net(rng)
        dist = load_distribution(dump(tmp_path, "d.json", {}), net)
        assert not dist.superposition
        assert dist.nq == 1
        np.testing.assert_allclose(dist.input_pmfs[0], [[0.5, 0.5]])
        # default compression forwards the observation unchanged
        np.testing.assert_allclose(
            dist.compression[0][0, :, 0, :], np.eye(2)
        )

    def test_explicit_plain_design(self, tmp_path):
        rng = np.random.default_rng(32)
        net = self._net(rng)
        p = dump(tmp_path, "d.json", {
            "q_pmf": [0.25, 0.75],
            "input_pmfs": [[[0.5, 0.5], [0.9, 0.1]], [0.3, 0.7, 0.6, 0.4]],
            "compression": [
                [0.8, 0.2, 0.3, 0.7] * 4,
                [1.0, 0.0, 0.0, 1.0] * 4,
            ],
        })
        dist = load_distribution(p, net)
        assert dist.nq == 2
        assert dist.input_pmfs[0][1, 0] == pytest.approx(0.9)
        assert dist.input_pmfs[1][0, 1] == pytest.approx(0.7)
        assert dist.compression[0].shape == (2, 2, 2, 2)

    def test_yhat_sizes_respected(self, tmp_path):
        rng = np.random.default_rng(33)
        net = self._net(rng)
        p = dump(tmp_path, "d.json", {
            "yhat_sizes": [1, 2],
            "compression": [
                [1.0] * 4,
                [1.0, 0.0, 0.0, 1.0] * 2,
            ],
        })
        dist = load_distribution(p, net)
        assert dist.compression[0].shape == (1, 2, 2, 1)
        assert dist.compression[1].shape == (1, 2, 2, 2)

    def test_yhat_sizes_wrong_length(self, tmp_path):
        rng = np.random.default_rng(34)
        net = self._net(rng)
        p = dump(tmp_path, "d.json", {
            "yhat_sizes": [1],
            "compression": [[1.0] * 4, [1.0] * 8],
        })
        with pytest.raises(SchemaError, match="yhat_sizes"):
            load_distribution(p, net)

    def test_superposition_requires_everything(self, tmp_path):
        rng = np.random.default_rng(35)
        net = self._net(rng)
        with pytest.raises(SchemaError, match="input_pmfs"):
            load_distribution(
                dump(tmp_path, "a.json", {"mode": "superposition"}), net
            )
        with pytest.raises(SchemaError, match="u_sizes"):
            load_distribution(
                dump(tmp_path, "b.json", {
                    "mode": "superposition",
                    "input_pmfs": [[0.25] * 4, [0.25] * 4],
                }), net
            )
        with pytest.raises(SchemaError, match="compression"):
            load_distribution(
                dump(tmp_path, "c.json", {
                    "mode": "superposition",
                    "u_sizes": [2, 2],
                    "input_pmfs": [[0.25] * 4, [0.25] * 4],
                }), net
            )

    def test_superposition_full_design(self, tmp_path):
        rng = np.random.default_rng(36)
        net = self._net(rng)
        p = dump(tmp_path, "d.json", {
            "mode": "superposition",
            "u_sizes": [2, 1],
            "input_pmfs": [[0.1, 0.2, 0.3, 0.4], [0.5, 0.5]],
            "compression": [
                [0.6, 0.4] * 4,
                [1.0, 0.0, 0.0, 1.0],
            ],
        })
        dist = load_distribution(p, net)
        assert dist.superposition
        assert dist.input_pmfs[0].shape == (1, 2, 2)
        assert dist.input_pmfs[1].shape == (1, 1, 2)
        assert dist.compression[0].shape == (1, 2, 2, 2)
        assert dist.compression[1].shape == (1, 2, 1, 2)

    def test_bad_mode(self, tmp_path):
        rng = np.random.default_rng(37)
        net = self._net(rng)
        with pytest.raises(SchemaError, match="mode"):
            load_distribution(dump(tmp_path, "m.json", {"mode": "fancy"}), net)

    def test_wrong_pmf_count(self, tmp_path):
        rng = np.random.default_rng(38)
        net = self._net(rng)
        p = dump(tmp_path, "d.json", {"input_pmfs": [[0.5, 0.5]]})
        with pytest.raises(SchemaError, match="one input pmf per node"):
            load_distribution(p, net)


class TestLoadInputFamily:
    def _net(self, rng):
        return DmNetwork(
            (2, 2), (1, 2), rand_channel(rng, (2, 2), (1, 2)),
            (NodeSet.of(2, 2), NodeSet.empty(2)),
        )

    def test_default_uniform(self, tmp_path):
        rng = np.random.default_rng(41)
        fam = load_input_family(None, self._net(rng))
        assert len(fam) == 1
        np.testing.assert_allclose(fam[0], np.full((2, 2), 0.25))

    def test_single_joint_tensor(self, tmp_path):
        rng = np.random.default_rng(42)
        p = dump(tmp_path, "f.json", {"joint_inputs": [0.1, 0.2, 0.3, 0.4]})
        fam = load_input_family(p, self._net(rng))
        assert len(fam) == 1
        assert fam[0][1, 1] == pytest.approx(0.4)

    def test_list_of_joints(self, tmp_path):
        rng = np.random.default_rng(43)
        p = dump(tmp_path, "f.json", {
            "joint_inputs": [
                [[0.25, 0.25], [0.25, 0.25]],
                [0.4, 0.1, 0.1, 0.4],
            ]
        })
        fam = load_input_family(p, self._net(rng))
        assert len(fam) == 2
        assert fam[1][0, 0] == pytest.approx(0.4)

    def test_product_design_expands_per_time_share(self, tmp_path):
        rng = np.random.default_rng(44)
        p = dump(tmp_path, "f.json", {
            "q_pmf": [0.5, 0.5],
            "input_pmfs": [
                [[0.9, 0.1], [0.2, 0.8]],
                [[0.5, 0.5], [0.5, 0.5]],
            ],
        })
        fam = load_input_family(p, self._net(rng))
        assert len(fam) == 2
        np.testing.assert_allclose(
            fam[0], np.outer([0.9, 0.1], [0.5, 0.5]), atol=1e-12
        )
        np.testing.assert_allclose(
            fam[1], np.outer([0.2, 0.8], [0.5, 0.5]), atol=1e-12
        )

    def test_superposition_rejected(self, tmp_path):
        rng = np.random.default_rng(45)
        p = dump(tmp_path, "f.json", {
            "mode": "superposition",
            "u_sizes": [1, 1],
            "input_pmfs": [[0.5, 0.5], [0.5, 0.5]],
            "compression": [[1.0], [1.0, 0.0, 0.0, 1.0]],
        })
        with pytest.raises(SchemaError, match="plain design"):
            load_input_family(p, self._net(rng))


class TestParseNodeSet:
    def test_forms(self):
        assert parse_node_set("1,3", 4) == NodeSet.of(4, 1, 3)
        assert parse_node_set("{1,3}", 4) == NodeSet.of(4, 1, 3)
        assert parse_node_set(" {2} ", 3) == NodeSet.of(3, 2)
        assert parse_node_set("", 3) == NodeSet.empty(3)
        assert parse_node_set("{}", 3) == NodeSet.empty(3)

    def test_junk_rejected(self):
        with pytest.raises(SchemaError, match="cannot parse"):
            parse_node_set("1,two", 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            parse_node_set("5", 4)
        with pytest.raises(SchemaError):
            parse_node_set("0", 4)
