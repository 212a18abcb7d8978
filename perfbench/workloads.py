"""The four benchmark workloads: seeded inputs, CLI argv and output checks.

Each workload turns ``(seed, op index)`` into the argv of one or two
``nncbound`` CLI calls (one user-level operation) plus any JSON files
those calls read, and checks every operation's CSV with something that
could disagree with it.  The program under test sees only argv and
files; nothing here calls the library's computation paths.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

# Entries compared against an independent recomputation must agree to
# this tolerance (relative, floored at 1 in magnitude).
CHECK_TOL = 1e-9
# The committed golden sweeps are regression data at this relative
# tolerance, the same as the package's acceptance criteria 4 and 5.
GOLDEN_RTOL = 1e-4


def fnum(x: float) -> str:
    """Format a seeded float for argv.

    ``repr`` of a numpy scalar reads ``np.float64(...)`` under numpy 2,
    which argparse rejects, so always convert to a Python float first.
    """
    return repr(float(x))


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def close(a: float, b: float, tol: float = CHECK_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class Workload:
    """One benchmark workload.

    ``ops(i)`` gives the argv lists of operation ``i``; ``check(i,
    outputs, call)`` returns a list of problems with their CSV outputs
    (empty when every check passed), where ``call(argv)`` runs one more
    CLI command untimed and returns ``(exit code, stdout, stderr)``.
    ``setup_checks(root)`` lists untimed checks made once per run as
    ``(label, argv lists, checker)`` triples.  Sizes are class constants;
    the self-tests shrink them in subclasses.
    """

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Write any input files; called once before the first op."""

    def setup_checks(self, root: Path) -> list:
        return []

    def ops(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, i: int, outputs: list[str], call) -> list[str]:
        raise NotImplementedError

    def input_files(self, i: int) -> list[Path]:
        return []


# ---------------------------------------------------------------------------
# sweep: irc-sweep followed by twrc-sweep


IRC_SUMS = ("sum_NNC_T2", "sum_NNC_T3", "sum_NNC_best", "sum_CF", "sum_HF")
TWRC_SUMS = ("sum_NNC", "sum_AF", "sum_CF")


class Sweep(Workload):
    name = "sweep"
    unit = "rate evaluations"
    irc_steps = 3
    twrc_steps = 10

    @property
    def units_per_op(self):
        return 4 * self.irc_steps + 3 * self.twrc_steps

    def ops(self, i):
        rng = op_rng(self.seed, i)
        gains = rng.uniform(0.1, 1.5, size=6)
        r0 = rng.uniform(0.25, 2.0)
        p_lo = rng.uniform(0.0, 10.0)
        p_hi = p_lo + rng.uniform(10.0, 20.0)
        gamma = rng.uniform(2.0, 4.0)
        power = 10.0 ** rng.uniform(0.0, 2.0)
        irc = ["irc-sweep", "--steps", str(self.irc_steps), "--r0", fnum(r0),
               "--p-db-min", fnum(p_lo), "--p-db-max", fnum(p_hi)]
        for name, g in zip(("g13", "g23", "g14", "g24", "g15", "g25"), gains):
            irc += [f"--{name}", fnum(g)]
        twrc = ["twrc-sweep", "--steps", str(self.twrc_steps),
                "--gamma", fnum(gamma), "--power", fnum(power)]
        return [irc, twrc]

    def check(self, i, outputs, call):
        problems = []
        irc_h, irc_rows = parse_csv(outputs[0])
        twrc_h, twrc_rows = parse_csv(outputs[1])
        if len(irc_rows) != self.irc_steps or not set(IRC_SUMS) <= set(irc_h):
            problems.append(f"irc-sweep: {len(irc_rows)} rows, header {irc_h}")
        if len(twrc_rows) != self.twrc_steps or not set(TWRC_SUMS) <= set(twrc_h):
            problems.append(f"twrc-sweep: {len(twrc_rows)} rows, header {twrc_h}")
        if problems:
            return problems
        for r in irc_rows:
            v = {k: float(r[k]) for k in IRC_SUMS}
            if not all(math.isfinite(x) for x in v.values()):
                problems.append(f"irc-sweep P_dB={r['P_dB']}: non-finite sum {v}")
            elif v["sum_NNC_best"] != max(v["sum_NNC_T2"], v["sum_NNC_T3"]):
                problems.append(f"irc-sweep P_dB={r['P_dB']}: sum_NNC_best is not the max")
        for r in twrc_rows:
            if not all(math.isfinite(float(r[k])) for k in TWRC_SUMS):
                problems.append(f"twrc-sweep d={r['d']}: non-finite sum")
        return problems

    def setup_checks(self, root):
        golden = root / "tests" / "golden"
        try:
            g = json.loads((golden / "irc_fig4.json").read_text())
            t = json.loads((golden / "twrc_fig2.json").read_text())
        except (OSError, ValueError) as exc:
            msg = f"cannot read goldens: {exc}"
            return [("goldens", [], lambda _outputs: [msg])]
        ga = g["gains"]
        p = [r["P_dB"] for r in g["rows"]]
        irc = ["irc-sweep", "--r0", fnum(g["r0"]), "--p-db-min", fnum(p[0]),
               "--p-db-max", fnum(p[-1]), "--steps", str(len(p))]
        for name in ("g13", "g23", "g14", "g24", "g15", "g25"):
            irc += [f"--{name}", fnum(ga[name])]
        d = [r["d"] for r in t["rows"]]
        twrc = ["twrc-sweep", "--gamma", fnum(t["gamma"]), "--power", fnum(t["power"]),
                "--d-min", fnum(d[0]), "--d-max", fnum(d[-1]), "--steps", str(len(d))]
        irc_cols = {"NNC-T2": "sum_NNC_T2", "NNC-T3": "sum_NNC_T3", "CF": "sum_CF", "HF": "sum_HF"}
        twrc_cols = {"NNC": "sum_NNC", "AF": "sum_AF", "CF": "sum_CF"}
        return [
            ("golden irc_fig4", [irc],
             lambda outputs: _golden_diff("irc_fig4", g["rows"], outputs[0], "P_dB", irc_cols)),
            ("golden twrc_fig2", [twrc],
             lambda outputs: _golden_diff("twrc_fig2", t["rows"], outputs[0], "d", twrc_cols)),
        ]


def _golden_diff(label, want_rows, text, key, col):
    _, got_rows = parse_csv(text)
    if len(want_rows) != len(got_rows):
        return [f"{label}: {len(got_rows)} rows, golden has {len(want_rows)}"]
    problems = []
    for want, got in zip(want_rows, got_rows):
        if not close(float(got[key]), want[key], 1e-12):
            problems.append(f"{label}: row {key}={got[key]} vs golden {want[key]}")
            continue
        for scheme, name in col.items():
            g, w = float(got[name]), want[scheme]
            if abs(g - w) > GOLDEN_RTOL * max(abs(w), 1e-12):
                problems.append(f"{label} {key}={want[key]} {scheme}: {g!r} vs golden {w!r}")
    return problems


# ---------------------------------------------------------------------------
# gap: one random Gaussian network per op


class Gap(Workload):
    name = "gap"
    unit = "cuts certified"
    power = 10.0
    n = 12
    sample_cuts = 32

    @property
    def units_per_op(self):
        return 2**self.n - 2

    def _net_seed(self, i):
        return int(op_rng(self.seed, i).integers(0, 2**31 - 1))

    def ops(self, i):
        return [["gap-check", "--random-n", str(self.n), "--trials", "1",
                 "--seed", str(self._net_seed(i)), "--power", fnum(self.power)]]

    def check(self, i, outputs, call):
        _, rows = parse_csv(outputs[0])
        cuts = [r for r in rows if r["trial"] != "summary"]
        summary = [r for r in rows if r["trial"] == "summary"]
        problems = []
        if len(cuts) != self.units_per_op or len(summary) != 1:
            return [f"{len(cuts)} cut rows and {len(summary)} summary rows, "
                    f"want {self.units_per_op} and 1"]
        bad = [r["cut_mask"] for r in cuts if r["ok"] != "true"]
        if bad or summary[0]["ok"] != "true":
            problems.append(f"ok is false on cuts {bad[:5]}")
        # Recompute a sample of cuts with slogdet from the documented
        # random-network recipe: standard normal gains, zero diagonal.
        rng = np.random.default_rng(self._net_seed(i))
        gains = rng.normal(size=(self.n, self.n))
        np.fill_diagonal(gains, 0.0)
        pick = op_rng(self.seed, i).choice(len(cuts), size=min(self.sample_cuts, len(cuts)),
                                           replace=False)
        for j in pick:
            r = cuts[int(j)]
            mask = int(r["cut_mask"])
            s = [k for k in range(self.n) if mask >> k & 1]
            c = [k for k in range(self.n) if not mask >> k & 1]
            g = gains[np.ix_(s, c)].T
            sign, logdet = np.linalg.slogdet(np.eye(len(c)) + (self.power / 2.0) * (g @ g.T))
            flow = 0.5 * logdet / math.log(2.0)
            outer = flow + (min(len(s), len(c)) / 2.0) * math.log2(2.0 * len(s))
            inner = flow - len(s) / 2.0
            if sign <= 0 or not close(float(r["outer"]), outer) or not close(
                float(r["inner_raw"]), inner
            ):
                problems.append(f"cut {mask}: outer {r['outer']} inner {r['inner_raw']} "
                                f"vs slogdet {outer!r} {inner!r}")
        return problems


# ---------------------------------------------------------------------------
# discrete memoryless networks written to JSON at set-up


def _rand_rows(rng, shape):
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=-1, keepdims=True)


def _channel(rng, n):
    """Strictly positive p(y^N | x^N) for binary inputs and outputs."""
    a = rng.random((2**n, 2**n)) + 0.05
    return (a / a.sum(axis=1, keepdims=True)).reshape((2,) * (2 * n))


def _network_json(chan, n):
    """Nodes 1..n-1 send to node n; node n sends nothing."""
    return {
        "format": "dm",
        "x_sizes": [2] * n,
        "y_sizes": [2] * n,
        "channel": chan.ravel().tolist(),
        "dests": [[n]] * (n - 1) + [[]],
    }


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data), encoding="utf-8")


class DmInner(Workload):
    name = "dm_inner"
    unit = "cut-destination entries"
    nq = 2
    n = 6
    pool = 8

    @property
    def units_per_op(self):
        return 2 ** (self.n - 1) - 1

    def _paths(self, i):
        k = i % self.pool
        return self.workdir / f"inner-net-{k}.json", self.workdir / f"inner-design-{k}.json"

    def setup(self):
        for k in range(self.pool):
            rng = op_rng(self.seed, k)
            n, nq = self.n, self.nq
            design = {
                "mode": "plain",
                "q_pmf": _rand_rows(rng, (nq,)).tolist(),
                "input_pmfs": [_rand_rows(rng, (nq, 2)).tolist() for _ in range(n)],
                "compression": [_rand_rows(rng, (nq, 2, 2, 2)).tolist() for _ in range(n)],
                "yhat_sizes": [2] * n,
            }
            net_path, design_path = self._paths(k)
            _write_json(net_path, _network_json(_channel(rng, n), n))
            _write_json(design_path, design)

    def input_files(self, i):
        return list(self._paths(i))

    def ops(self, i):
        net, design = self._paths(i)
        return [["eval", "--bound", "thm2", "--network", str(net), "--dist", str(design)]]

    def check(self, i, outputs, call):
        _, rows = parse_csv(outputs[0])
        if len(rows) != self.units_per_op:
            return [f"{len(rows)} thm2 rows, want {self.units_per_op}"]
        net, design = self._paths(i)
        code, outer_csv, err = call(
            ["eval", "--bound", "cutset", "--network", str(net), "--dist", str(design)]
        )
        if code != 0:
            return [f"cutset eval exited {code}: {err.strip()}"]
        _, outer_rows = parse_csv(outer_csv)
        outer = {(r["cut_mask"], r["dest"]): float(r["raw"]) for r in outer_rows}
        problems = []
        for r in rows:
            key = (r["cut_mask"], r["dest"])
            if key not in outer:
                problems.append(f"cut {key} has no cutset entry")
            elif float(r["raw"]) > outer[key] + CHECK_TOL:
                problems.append(f"cut {key}: thm2 {r['raw']} exceeds cutset {outer[key]!r}")
        return problems


class DmOuter(Workload):
    name = "dm_outer"
    unit = "cut x family-member evaluations"
    n = 7
    family = 16
    pool = 8
    sample_cuts = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.arrays: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}

    @property
    def n_cuts(self):
        return 2 ** (self.n - 1) - 1

    @property
    def units_per_op(self):
        return self.n_cuts * self.family

    def _paths(self, i):
        k = i % self.pool
        return self.workdir / f"outer-net-{k}.json", self.workdir / f"outer-inputs-{k}.json"

    def setup(self):
        for k in range(self.pool):
            rng = op_rng(self.seed, k)
            chan = _channel(rng, self.n)
            # Correlated joint inputs: a random pmf over all 2^n input
            # tuples does not factorize across senders.
            members = [_rand_rows(rng, (2**self.n,)).reshape((2,) * self.n)
                       for _ in range(self.family)]
            self.arrays[k] = (chan, members)
            net_path, inputs_path = self._paths(k)
            _write_json(net_path, _network_json(chan, self.n))
            _write_json(inputs_path, {"joint_inputs": [m.ravel().tolist() for m in members]})

    def input_files(self, i):
        return list(self._paths(i))

    def ops(self, i):
        net, inputs = self._paths(i)
        return [["eval", "--bound", "cutset", "--network", str(net), "--dist", str(inputs)]]

    def check(self, i, outputs, call):
        _, rows = parse_csv(outputs[0])
        if len(rows) != self.n_cuts:
            return [f"{len(rows)} cutset rows, want {self.n_cuts}"]
        chan, members = self.arrays[i % self.pool]
        # Every cut on the first op of a run, a seeded sample after that.
        if i == 0:
            pick = range(len(rows))
        else:
            pick = op_rng(self.seed, i).choice(len(rows), size=self.sample_cuts, replace=False)
        problems = []
        for j in pick:
            r = rows[int(j)]
            mask = int(r["cut_mask"])
            want = max(cut_cmi_direct(chan, m, mask) for m in members)
            if not close(float(r["raw"]), want):
                problems.append(f"cut {mask}: cutset {r['raw']} vs direct sum {want!r}")
        return problems


def cut_cmi_direct(chan: np.ndarray, x_pmf: np.ndarray, mask: int) -> float:
    """I(X_S; Y_Sc | X_Sc) by direct summation of p log p(abc)p(c)/(p(ac)p(bc)).

    Axes of the joint are X_1..X_n then Y_1..Y_n; S is the node set in
    ``mask`` (bit k-1 for node k).  Independent of the four-entropy
    identity the package uses.
    """
    n = x_pmf.ndim
    joint = chan * x_pmf.reshape(x_pmf.shape + (1,) * n)
    y_in = tuple(n + k for k in range(n) if mask >> k & 1)
    y_out = tuple(n + k for k in range(n) if not mask >> k & 1)
    x_in = tuple(k for k in range(n) if mask >> k & 1)
    p_abc = joint.sum(axis=y_in, keepdims=True)
    p_ac = p_abc.sum(axis=y_out, keepdims=True)
    p_bc = p_abc.sum(axis=x_in, keepdims=True)
    p_c = p_ac.sum(axis=x_in, keepdims=True)
    ratio = p_abc * p_c / (p_ac * p_bc)
    live = p_abc > 0
    return float(np.sum(p_abc[live] * np.log2(ratio[live])))


WORKLOADS = {w.name: w for w in (Sweep, Gap, DmInner, DmOuter)}
