"""Malformed input files never end in a traceback.

Each example takes a valid network, design or input file, replaces one
value anywhere in it (or the whole document) with arbitrary JSON, or
deletes one key or entry, and runs the CLI on it.  Every outcome must be
a clean exit: 0, 2 (bad config) or 3 (evaluation failure).  An uncaught
exception fails the example.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nncbound.cli as cli

GAUSSIAN = {
    "format": "gaussian",
    "gains": [[0.0, 1.0, 0.4], [1.0, 0.0, 0.7], [0.4, 0.7, 0.0]],
    "power": 5.0,
    "dests": [[2, 3], [], [1]],
}
DM = {
    "format": "dm",
    "x_sizes": [2, 2, 1],
    "y_sizes": [1, 2, 2],
    "channel": [0.9, 0.1, 0.0, 0.0, 0.1, 0.9, 0.0, 0.0,
                0.0, 0.0, 0.95, 0.05, 0.0, 0.0, 0.05, 0.95],
    "dests": [[3], [], []],
}
NOISELESS = {
    "format": "noiseless",
    "n_nodes": 3,
    "links": [{"sender": 1, "receiver": 2, "capacity": 1.0},
              {"sender": 2, "receiver": 3, "capacity": 2}],
    "dests": [[3], [], []],
}
ERASURE_MATRIX = {
    "format": "erasure",
    "x_sizes": [2, 2, 1],
    "link_erasure": [[0.0, 0.2, 0.5], [0.3, 0.0, 0.1], [0.0, 0.0, 0.0]],
    "dests": [[3], [3], []],
}
ERASURE_TABLE = {
    "format": "erasure",
    "x_sizes": [2, 1, 1],
    "all_erased": [{"sender": 1, "receivers": [2], "prob": 0.5},
                   {"sender": 1, "receivers": [3], "prob": 0.2},
                   {"sender": 1, "receivers": [2, 3], "prob": 0.1},
                   {"sender": 2, "receivers": [3], "prob": 0.0}],
    "dests": [[3], [], []],
}
DETERMINISTIC = {
    "format": "deterministic",
    "x_sizes": [2, 2, 1],
    "y_sizes": [1, 2, 2],
    "outputs": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0]],
    "dests": [[3], [3], []],
}
PLAIN_DESIGN = {
    "mode": "plain",
    "q_pmf": [0.5, 0.5],
    "input_pmfs": [[[0.5, 0.5], [0.9, 0.1]], [0.5, 0.5, 0.5, 0.5], [[1.0], [1.0]]],
    "yhat_sizes": [1, 2, 1],
    "compression": [[1.0] * 4, [0.75, 0.25, 0.25, 0.75] * 4, [1.0] * 4],
}
LAYERED_DESIGN = {
    "mode": "superposition",
    "u_sizes": [2, 1, 1],
    "input_pmfs": [[0.4, 0.1, 0.1, 0.4], [0.5, 0.5], [1.0]],
    "compression": [[1.0] * 2, [1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]],
}
JOINT_INPUTS = {"joint_inputs": [[[[0.25], [0.25]], [[0.25], [0.25]]], [0.1, 0.2, 0.3, 0.4]]}

# (file to mutate, the other file, argv; NET and DIST stand for the paths)
TARGETS = {
    "gaussian-gap": (GAUSSIAN, None, ["gap-check", "--network", "NET"]),
    "gaussian-eval": (GAUSSIAN, None, ["eval", "--bound", "gauss_inner",
                                       "--network", "NET", "--multicast", "3"]),
    "dm": (DM, None, ["eval", "--bound", "thm2", "--network", "NET"]),
    "noiseless": (NOISELESS, None, ["eval", "--bound", "noiseless", "--network", "NET"]),
    "erasure-matrix": (ERASURE_MATRIX, None,
                       ["eval", "--bound", "erasure", "--network", "NET"]),
    "erasure-table": (ERASURE_TABLE, None,
                      ["eval", "--bound", "erasure", "--network", "NET"]),
    "deterministic": (DETERMINISTIC, None,
                      ["eval", "--bound", "deterministic", "--network", "NET"]),
    "plain-design": (PLAIN_DESIGN, DM, ["eval", "--bound", "thm2", "--network", "NET",
                                        "--dist", "DIST"]),
    "layered-design": (LAYERED_DESIGN, DM, ["eval", "--bound", "thm3", "--network", "NET",
                                            "--dist", "DIST"]),
    "joint-inputs": (JOINT_INPUTS, DM, ["eval", "--bound", "cutset", "--network", "NET",
                                        "--dist", "DIST"]),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutated(doc, path, value, delete):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_malformed_file_exits_cleanly(target, tmp_path_factory, capsys):
    doc, other, argv = TARGETS[target]
    paths = list(_paths(doc))
    workdir = tmp_path_factory.mktemp(target)
    fuzzed = workdir / "fuzzed.json"
    fixed = workdir / "fixed.json"
    if other is not None:
        fixed.write_text(json.dumps(other))
    files = {"NET": fuzzed, "DIST": fuzzed} if other is None else {"NET": fixed, "DIST": fuzzed}
    args = [str(files.get(a, a)) for a in argv]

    @settings(max_examples=30, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(paths), json_values, st.booleans())
    def run(path, value, delete):
        fuzzed.write_text(json.dumps(_mutated(doc, path, value, delete and bool(path))))
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    run()
