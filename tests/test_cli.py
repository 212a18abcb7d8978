import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

import nncbound.cli as cli
from nncbound.configio import load_network
from nncbound.errors import EvaluationError
from nncbound.gauss_bounds import (
    IRC_SCHEMES,
    TWRC_SCHEMES,
    IrcConfig,
    TwrcConfig,
    db_to_power,
    gauss_cutset_outer,
    gauss_nnc_inner,
    irc_rates,
    twrc_rates,
)
from nncbound.infocalc import gauss_cut_rate
from nncbound.netmodel import GaussianNetwork, NodeSet

from helpers import rand_channel


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture
def relay_dm(tmp_path):
    rng = np.random.default_rng(51)
    chan = rand_channel(rng, (2, 2, 1), (1, 2, 2))
    return write_json(tmp_path, "relay.json", {
        "format": "dm",
        "x_sizes": [2, 2, 1],
        "y_sizes": [1, 2, 2],
        "channel": chan.ravel().tolist(),
        "dests": [[3], [], []],
    })


@pytest.fixture
def gauss_file(tmp_path):
    return write_json(tmp_path, "gauss.json", {
        "format": "gaussian",
        "gains": [[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]],
        "power": 5.0,
        "dests": [[2], [1], []],
    })


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def header_of(text):
    return text.splitlines()[0]


SMALL = ["--grid-points", "40", "--refine-iters", "10"]


class TestSweepCommands:
    def test_twrc_header_and_determinism(self, capsys):
        argv = ["twrc-sweep", "--steps", "2", "--d-min", "0.2", "--d-max", "0.5"] + SMALL
        code, out1, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert header_of(out1) == "d,sum_NNC,sum_AF,sum_CF,sigma2_NNC,alpha_AF,sigma2_CF"
        assert len(out1.splitlines()) == 3
        code, out2, _ = run_cli(capsys, argv)
        assert code == 0 and out2 == out1

    def test_twrc_scheme_subset(self, capsys):
        argv = ["twrc-sweep", "--steps", "1", "--d-min", "0.3", "--d-max", "0.3",
                "--schemes", "CF"] + SMALL
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        row = out.splitlines()[1].split(",")
        # unevaluated schemes leave empty cells
        assert row[1] == "" and row[2] == ""
        assert float(row[3]) > 0
        assert float(row[6]) > 0

    def test_twrc_bad_range(self, capsys):
        code, _, err = run_cli(capsys, ["twrc-sweep", "--d-min", "0.6", "--d-max", "0.4"])
        assert code == 2
        assert "error:" in err

    def test_irc_header_and_determinism(self, capsys):
        argv = ["irc-sweep", "--steps", "2", "--p-db-min", "0", "--p-db-max", "12"] + SMALL
        code, out1, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert header_of(out1) == (
            "P_dB,sum_NNC_T2,sum_NNC_T3,sum_NNC_best,sum_CF,sum_HF,"
            "sigma2_NNC_T2,sigma2_NNC_T3,sigma2_CF,sigma2_HF"
        )
        code, out2, _ = run_cli(capsys, argv)
        assert out2 == out1

    def test_irc_best_column_tracks_max(self, capsys):
        argv = ["irc-sweep", "--steps", "1", "--p-db-min", "9", "--p-db-max", "9"] + SMALL
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        row = out.splitlines()[1].split(",")
        t2, t3, best = float(row[1]), float(row[2]), float(row[3])
        assert best == pytest.approx(max(t2, t3))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_twrc_non_finite_gamma(self, capsys, bad):
        code, out, err = run_cli(capsys, ["twrc-sweep", "--steps", "1", "--gamma", bad])
        assert code == 2 and out == ""
        assert "gamma" in err and "Traceback" not in err

    def test_irc_power_overflow_exits_two(self, capsys):
        argv = ["irc-sweep", "--p-db-max", "4000", "--steps", "2"] + SMALL
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "4000.0 dB" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, named", [
        ("--r0", "2000", "r0"),
        ("--g13", "1e200", "g13"),
    ])
    def test_irc_gain_or_link_overflow_exits_two(self, capsys, flag, value, named):
        argv = ["irc-sweep", flag, value, "--steps", "2"] + SMALL
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert named in err and "overflow" in err and "Traceback" not in err

    def test_twrc_huge_gamma_caps_gains(self, capsys):
        # the relay gains overflow a float and are capped, not a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["twrc-sweep", "--gamma", "10000", "--steps", "2"])
        assert code == 0 and err == ""
        assert len(rows_of(out)) == 3

    @pytest.mark.parametrize("argv, column", [
        (["irc-sweep", "--steps", "7"], "P_dB"),
        (["irc-sweep", "--steps", "7", "--r0", "0"], "P_dB"),
        (["twrc-sweep", "--steps", "7", "--d-min", "0.01", "--d-max", "0.99"], "d"),
    ])
    def test_every_row_equals_its_one_row_call(self, capsys, argv, column):
        # all rows are maximized in lockstep; no row may see another row
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, *rows = rows_of(out)
        irc = argv[0] == "irc-sweep"
        for row in rows:
            cells = dict(zip(header, row))
            x = float(cells[column])
            if irc:
                r0 = 0.0 if "--r0" in argv else 1.0
                cfg = IrcConfig(0.1, 0.5, 1.0, 0.5, 0.5, 1.0, r0, db_to_power(x))
                for scheme in IRC_SCHEMES:
                    res = irc_rates(cfg, scheme)
                    name = scheme.replace("-", "_")
                    assert cells[f"sum_{name}"] == cli._fmt(res.sum_rate)
                    assert cells[f"sigma2_{name}"] == cli._fmt(res.sigma2)
                    assert res.fallback == (scheme == "CF" and r0 == 0.0)
            else:
                cfg = TwrcConfig(x, 3.0, 10.0)
                for scheme in TWRC_SCHEMES:
                    res = twrc_rates(cfg, scheme)
                    key = "alpha_AF" if scheme == "AF" else f"sigma2_{scheme}"
                    assert cells[f"sum_{scheme}"] == cli._fmt(res.sum_rate)
                    assert cells[key] == cli._fmt(res.param)

    def test_unknown_scheme(self, capsys):
        code, _, err = run_cli(capsys, ["irc-sweep", "--schemes", "AF"])
        assert code == 2
        assert "unknown scheme" in err


class TestGapCheck:
    def test_random_mode_deterministic_under_seed(self, capsys):
        argv = ["gap-check", "--random-n", "3", "--trials", "2", "--seed", "5"]
        code, out1, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert header_of(out1) == "trial,cut_mask,cut_nodes,outer,inner_raw,gap,budget,ok"
        assert out1.splitlines()[-1].startswith("summary,")
        code, out2, _ = run_cli(capsys, argv)
        assert out2 == out1
        different = run_cli(capsys, argv[:-1] + ["6"])[1]
        assert different != out1

    def test_random_mode_byte_identical_at_twelve_nodes(self, capsys):
        argv = ["gap-check", "--random-n", "12", "--trials", "2", "--seed", "4"]
        code, out1, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        rows = rows_of(out1)
        assert len(rows) == 1 + 2 * (2**12 - 2) + 1
        assert all(r[-1] == "true" for r in rows[1:])
        code, out2, _ = run_cli(capsys, argv)
        assert code == 0 and out2 == out1

    def test_file_mode(self, capsys, gauss_file):
        code, out, _ = run_cli(capsys, ["gap-check", "--network", gauss_file])
        assert code == 0
        body = out.splitlines()[1:-1]
        assert all(line.endswith(",true") for line in body)
        summary = out.splitlines()[-1].split(",")
        assert summary[-1] == "true"

    @pytest.mark.parametrize("argv", [
        ["gap-check", "--network"],
        ["eval", "--bound", "gauss_inner", "--network"],
    ])
    def test_gram_overflow_exits_two(self, capsys, tmp_path, argv):
        # finite gains whose Gram product overflows are rejected on load
        path = write_json(tmp_path, "big.json", {
            "format": "gaussian",
            "gains": [[0, 1e200, 1], [1, 0, 1], [1, 1, 0]],
            "power": 1,
            "dests": [[2, 3], [1, 3], [1, 2]],
        })
        code, out, err = run_cli(capsys, argv + [path])
        assert code == 2 and out == ""
        assert "gains" in err and "Traceback" not in err

    def test_selector_required(self, capsys, gauss_file):
        code, _, err = run_cli(capsys, ["gap-check"])
        assert code == 2 and "exactly one" in err
        code, _, err = run_cli(
            capsys, ["gap-check", "--network", gauss_file, "--random-n", "3"]
        )
        assert code == 2 and "exactly one" in err


class TestEval:
    def test_thm1_requires_multicast(self, capsys, relay_dm):
        code, _, err = run_cli(capsys, ["eval", "--bound", "thm1", "--network", relay_dm])
        assert code == 2
        assert "--multicast" in err

    def test_thm1_report(self, capsys, relay_dm):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--bound", "thm1", "--network", relay_dm, "--multicast", "3"],
        )
        assert code == 0
        assert header_of(out) == (
            "cut_mask,cut_nodes,dest,rate_set,raw,clamped,flow_term,penalty_term"
        )
        masks = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert masks == ["1", "2", "3"]

    def test_thm2_report(self, capsys, relay_dm):
        code, out, _ = run_cli(capsys, ["eval", "--bound", "thm2", "--network", relay_dm])
        assert code == 0
        # only cuts holding the lone sender constrain anything
        masks = {line.split(",")[0] for line in out.splitlines()[1:]}
        assert masks == {"1", "3"}

    def test_thm3_needs_design_file(self, capsys, relay_dm):
        code, _, err = run_cli(capsys, ["eval", "--bound", "thm3", "--network", relay_dm])
        assert code == 2
        assert "--dist" in err

    def test_thm3_report(self, capsys, tmp_path, relay_dm):
        dist = write_json(tmp_path, "sup.json", {
            "mode": "superposition",
            "u_sizes": [2, 2, 1],
            "input_pmfs": [
                [0.2, 0.3, 0.4, 0.1],
                [0.25, 0.25, 0.3, 0.2],
                [1.0],
            ],
            "compression": [
                [1.0, 1.0],
                [0.7, 0.3, 0.4, 0.6, 0.2, 0.8, 0.9, 0.1],
                [1.0, 0.0, 0.0, 1.0],
            ],
        })
        code, out, _ = run_cli(
            capsys,
            ["eval", "--bound", "thm3", "--network", relay_dm, "--dist", dist],
        )
        assert code == 0
        rate_sets = [row[3] for row in rows_of(out)[1:]]
        assert all(rs.startswith("{") for rs in rate_sets)

    def test_cutset_default_uniform(self, capsys, relay_dm):
        code, out, _ = run_cli(
            capsys, ["eval", "--bound", "cutset", "--network", relay_dm]
        )
        assert code == 0
        for row in rows_of(out)[1:]:
            assert row[7] == "0.0"  # outer bound has no penalty

    def test_cf_ext_report(self, capsys, relay_dm):
        code, out, _ = run_cli(capsys, ["eval", "--bound", "cf_ext", "--network", relay_dm])
        assert code == 0
        assert header_of(out) == (
            "row,group_mask,group_nodes,dest,description_cost,flow,slack,ok,rate"
        )
        lines = out.splitlines()
        assert lines[-1].startswith("result,")
        kinds = {line.split(",")[0] for line in lines[1:-1]}
        assert kinds == {"constraint"}

    def test_noiseless_region_and_thm1_conversion(self, capsys, tmp_path):
        nl = write_json(tmp_path, "line.json", {
            "format": "noiseless",
            "n_nodes": 3,
            "links": [
                {"sender": 1, "receiver": 2, "capacity": 1.0},
                {"sender": 2, "receiver": 3, "capacity": 1.0},
            ],
            "dests": [[3], [], []],
        })
        code, out, _ = run_cli(capsys, ["eval", "--bound", "noiseless", "--network", nl])
        assert code == 0
        assert header_of(out) == "cut_mask,cut_nodes,value"
        vals = {row[0]: float(row[2]) for row in rows_of(out)[1:]}
        assert vals["1"] == 1.0 and vals["3"] == 1.0
        # the same file feeds the channel-level bound after conversion
        code, out, _ = run_cli(
            capsys,
            ["eval", "--bound", "thm1", "--network", nl, "--multicast", "3"],
        )
        assert code == 0

    def test_erasure_region(self, capsys, tmp_path):
        er = write_json(tmp_path, "er.json", {
            "format": "erasure",
            "x_sizes": [2, 1],
            "link_erasure": [[0.0, 0.5], [0.0, 0.0]],
            "dests": [[2], []],
        })
        code, out, _ = run_cli(capsys, ["eval", "--bound", "erasure", "--network", er])
        assert code == 0
        assert out.splitlines()[1] == "1,{1},0.5"

    def test_deterministic_region(self, capsys, tmp_path):
        det = write_json(tmp_path, "det.json", {
            "format": "deterministic",
            "x_sizes": [2, 1],
            "y_sizes": [1, 2],
            "outputs": [[0, 0], [0, 1]],
            "dests": [[2], []],
        })
        code, out, _ = run_cli(
            capsys, ["eval", "--bound", "deterministic", "--network", det]
        )
        assert code == 0
        assert out.splitlines()[1] == "1,{1},1.0"

    def test_gauss_bounds_report(self, capsys, gauss_file):
        code, inner, _ = run_cli(
            capsys, ["eval", "--bound", "gauss_inner", "--network", gauss_file]
        )
        assert code == 0
        assert header_of(inner) == "cut_mask,cut_nodes,raw,clamped"
        code, outer, _ = run_cli(
            capsys, ["eval", "--bound", "gauss_outer", "--network", gauss_file]
        )
        assert code == 0
        for ri, ro in zip(rows_of(inner)[1:], rows_of(outer)[1:]):
            assert float(ro[2]) > float(ri[2])

    def test_gauss_bounds_match_per_cut_closed_forms(self, capsys, gauss_file):
        net = load_network(gauss_file)
        for bound, fn in (("gauss_inner", gauss_nnc_inner), ("gauss_outer", gauss_cutset_outer)):
            code, out, _ = run_cli(
                capsys, ["eval", "--bound", bound, "--network", gauss_file,
                         "--multicast", "1,2,3"]
            )
            assert code == 0
            rows = rows_of(out)[1:]
            assert [int(r[0]) for r in rows] == list(range(1, 7))
            for r in rows:
                v = fn(net, NodeSet(3, int(r[0])))
                assert r[2:] == [repr(v), repr(max(v, 0.0))]

    def test_deterministic_non_integer_output_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "det.json", {
            "format": "deterministic",
            "x_sizes": [2],
            "y_sizes": [2],
            "outputs": [[0, 0.5]],
            "dests": [[1]],
        })
        code, _, err = run_cli(capsys, ["eval", "--bound", "deterministic", "--network", path])
        assert code == 2
        assert "outputs[0]" in err

    @pytest.mark.parametrize("payload, argv, field", [
        ({"format": "gaussian", "gains": [[0, 1], [1]], "power": 5,
          "dests": [[2], []]}, ["gap-check"], "gains"),
        ({"format": "gaussian", "gains": [[0, 1], [1, 0]], "power": "5",
          "dests": [["2"], []]}, ["eval", "--bound", "gauss_outer"], "power"),
        ({"format": "noiseless", "n_nodes": 2, "links": True,
          "dests": [[2], []]}, ["eval", "--bound", "noiseless"], "links"),
    ])
    def test_malformed_network_field_exits_two(
        self, capsys, tmp_path, payload, argv, field
    ):
        path = write_json(tmp_path, "net.json", payload)
        code, out, err = run_cli(capsys, argv + ["--network", path])
        assert code == 2 and out == ""
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("sizes", [[2.5, 2], [0, 2], [True, 2]])
    def test_dm_bad_alphabet_size_exits_two(self, capsys, tmp_path, sizes):
        path = write_json(tmp_path, "dm.json", {
            "format": "dm",
            "x_sizes": sizes,
            "y_sizes": [2, 2],
            "channel": [0.25] * 16,
            "dests": [[2], []],
        })
        code, _, err = run_cli(capsys, ["eval", "--bound", "thm2", "--network", path])
        assert code == 2
        assert "x_sizes[0]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bound, payload, field", [
        ("thm2", {"yhat_sizes": [1, 1.5, 1], "compression": [[1.0]] * 3}, "yhat_sizes[1]"),
        ("cutset", {"joint_inputs": True}, "joint_inputs"),
    ])
    def test_malformed_design_file_exits_two(
        self, capsys, tmp_path, relay_dm, bound, payload, field
    ):
        design = write_json(tmp_path, "design.json", payload)
        code, out, err = run_cli(
            capsys, ["eval", "--bound", bound, "--network", relay_dm, "--dist", design]
        )
        assert code == 2 and out == ""
        assert field in err and "Traceback" not in err

    def test_bound_network_format_mismatch(self, capsys, gauss_file, relay_dm):
        code, _, err = run_cli(capsys, ["eval", "--bound", "thm2", "--network", gauss_file])
        assert code == 2
        assert "discrete network" in err
        code, _, err = run_cli(
            capsys, ["eval", "--bound", "gauss_inner", "--network", relay_dm]
        )
        assert code == 2
        assert "gaussian-format" in err

    def test_missing_network_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["eval", "--bound", "thm2", "--network", str(tmp_path / "none.json")],
        )
        assert code == 2
        assert "cannot read" in err


# ---------------------------------------------------------------------------
# Gaussian CSV against a per-cut reference


def _reference_cut(net, cut):
    """(outer, inner_raw, budget) of one cut from its own log-det."""
    n, s = net.n_nodes, len(cut)
    flow = gauss_cut_rate(net, cut)
    allowance = (min(s, n - s) / 2.0) * math.log2(2.0 * s)
    return flow + allowance, flow - s / 2.0, s / 2.0 + allowance


def _reference_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _reference_eligible(net, cut, multicast):
    wanted = multicast
    if wanted is None:
        wanted = NodeSet.empty(net.n_nodes)
        for k in cut:
            wanted = wanted | net.dests[k - 1]
    return cut.complement() & wanted


def _reference_gap_check(nets):
    """gap-check CSV built one NodeSet at a time: every proper cut (all
    nodes are destinations), str(NodeSet), repr(float), csv.writer."""
    rows = []
    max_gap = max_budget = -math.inf
    all_ok = True
    for trial, net in enumerate(nets):
        n = net.n_nodes
        for mask in range(1, (1 << n) - 1):
            cut = NodeSet(n, mask)
            outer, inner, budget = _reference_cut(net, cut)
            gap = outer - inner
            ok = gap <= budget + 1e-9
            rows.append([str(trial), str(mask), str(cut), repr(outer), repr(inner),
                         repr(gap), repr(budget), "true" if ok else "false"])
            max_gap = max(max_gap, gap)
            max_budget = max(max_budget, budget)
            all_ok = all_ok and ok
    rows.append(["summary", "", "", "", "", repr(max_gap), repr(max_budget),
                 "true" if all_ok else "false"])
    header = ["trial", "cut_mask", "cut_nodes", "outer", "inner_raw", "gap", "budget", "ok"]
    return _reference_csv(header, rows)


def _reference_eval(net, bound, multicast):
    rows = []
    for mask in range(1, 1 << net.n_nodes):
        cut = NodeSet(net.n_nodes, mask)
        if not _reference_eligible(net, cut, multicast):
            continue
        outer, inner, _ = _reference_cut(net, cut)
        v = inner if bound == "gauss_inner" else outer
        rows.append([str(mask), str(cut), repr(v), repr(max(v, 0.0))])
    return _reference_csv(["cut_mask", "cut_nodes", "raw", "clamped"], rows)


def _random_nets(n, trials, seed, power=10.0):
    """The networks ``gap-check --random-n`` draws."""
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(trials):
        gains = rng.normal(size=(n, n))
        np.fill_diagonal(gains, 0.0)
        nets.append(GaussianNetwork(gains, power, tuple(NodeSet.full(n) for _ in range(n))))
    return nets


@pytest.fixture
def per_node_gauss_file(tmp_path):
    gains = np.random.default_rng(61).normal(size=(6, 6))
    np.fill_diagonal(gains, 0.0)
    return write_json(tmp_path, "gauss6.json", {
        "format": "gaussian",
        "gains": gains.tolist(),
        "power": 2.5,
        "dests": [[6], [5], [], [1, 2], [], [3]],
    })


class TestGaussianCsvOracle:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_random_gap_check_is_byte_identical(self, capsys, n):
        for seed in (1, 2, 3):
            code, out, err = run_cli(
                capsys, ["gap-check", "--random-n", str(n), "--trials", "2",
                         "--seed", str(seed)]
            )
            assert code == 0 and err == ""
            assert out == _reference_gap_check(_random_nets(n, 2, seed))

    def test_gap_check_network_file_is_byte_identical(self, capsys, per_node_gauss_file):
        code, out, _ = run_cli(capsys, ["gap-check", "--network", per_node_gauss_file])
        assert code == 0
        net = load_network(per_node_gauss_file)
        assert out == _reference_gap_check([net])
        # the summary row is the maximum over the cut rows
        summary = rows_of(out)[-1]
        assert summary[0] == "summary" and summary[-1] == "true"

    @pytest.mark.parametrize("bound", ["gauss_inner", "gauss_outer"])
    @pytest.mark.parametrize("multicast", [None, "6", "2,3,5", "1,2,3,4,5,6"])
    def test_eval_is_byte_identical(self, capsys, per_node_gauss_file, bound, multicast):
        argv = ["eval", "--bound", bound, "--network", per_node_gauss_file]
        if multicast is not None:
            argv += ["--multicast", multicast]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        net = load_network(per_node_gauss_file)
        mc = None if multicast is None else NodeSet.of(6, *map(int, multicast.split(",")))
        assert out == _reference_eval(net, bound, mc)
        # not all-to-all: the per-node dests leave some cuts out
        if multicast is None:
            assert len(rows_of(out)) - 1 < 2**6 - 2


class TestPlumbing:
    def test_out_file_matches_stdout(self, capsys, tmp_path, gauss_file):
        argv = ["gap-check", "--network", gauss_file]
        code, stdout_text, _ = run_cli(capsys, argv)
        assert code == 0
        dest = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, argv + ["--out", str(dest)])
        assert code == 0
        assert out == ""
        assert dest.read_text(encoding="utf-8") == stdout_text

    def test_csv_cells_quoted_as_csv_writer_quotes_them(self, capsys):
        rows = [["a,b", 'say "hi"', "two\nlines", "cr\rin", "", " sp ", "{1,2}", "x"],
                [None, True, 1.5, 3, float("nan"), -0.0, "plain", "{3}"]]
        header = ["h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"]
        cli._write_csv("-", header, [cli._fmt_row(r) for r in rows])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([rows[0], ["", "true", "1.5", "3", "nan", "-0.0", "plain", "{3}"]])
        assert capsys.readouterr().out == buf.getvalue()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--help"]) == 0
        capsys.readouterr()

    def test_unknown_option_exits_two(self, capsys):
        assert cli.main(["twrc-sweep", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_evaluation_error_exits_three(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise EvaluationError("synthetic failure")
        monkeypatch.setattr(cli, "twrc_sweep_rates", boom)
        code, _, err = run_cli(capsys, ["twrc-sweep", "--steps", "1"])
        assert code == 3
        assert "synthetic failure" in err

    def test_module_entrypoint(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "nncbound", "twrc-sweep", "--steps", "1",
             "--d-min", "0.5", "--d-max", "0.5"] + SMALL,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("d,sum_NNC")
