"""Deterministic command-line front end.

Four subcommands, all emitting CSV (LF line endings, shortest round-trip
float formatting) so identical invocations produce byte-identical files:

* ``twrc-sweep``  — two-way relay schemes across relay positions;
* ``irc-sweep``   — interference-relay schemes across transmit powers;
* ``gap-check``   — per-cut outer/inner gap certificate, random or from
  a network file;
* ``eval``        — evaluate one named bound on a network config file.

Exit codes: 0 success, 2 bad usage or config, 3 evaluation failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import configio
from .dm_bounds import (
    DeterministicNetwork,
    ErasureNetwork,
    NoiselessNetwork,
    cf_extension_bound,
    cutset_outer_bound,
    deterministic_region,
    erasure_region,
    nnc_multicast_bound,
    nnc_theorem2_bound,
    nnc_theorem3_bound,
    noiseless_region,
)
from .errors import EvaluationError, SchemaError
from .gauss_bounds import (
    IRC_SCHEMES,
    TWRC_SCHEMES,
    IrcConfig,
    SweepGrid,
    TwrcConfig,
    db_to_power,
    gap_certificate,
    gauss_cut_bounds,
    irc_sweep_rates,
    twrc_sweep_rates,
)
# Not called here: the benchmark's cli.twrc_rates/irc_rates hooks patch these names.
from .gauss_bounds import irc_rates, twrc_rates  # noqa: F401
from .infocalc import CodingDistribution
from .netmodel import (
    DmNetwork,
    GaussianNetwork,
    NodeSet,
    enumerate_cutsets,
    node_set_names,
)

BOUNDS = (
    "thm1",
    "thm2",
    "thm3",
    "cutset",
    "cf_ext",
    "noiseless",
    "erasure",
    "deterministic",
    "gauss_inner",
    "gauss_outer",
)


def _quote(text: str) -> str:
    """A text cell as ``csv.writer(lineterminator="\\n")`` writes it: quoted
    when it holds the delimiter, the quote character or the line end."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return _quote(str(value))


def _fmt_row(row: Iterable[Any]) -> list[str]:
    return [_fmt(cell) for cell in row]


def _cut_cells(masks: np.ndarray, names: Sequence[str]) -> tuple[Iterator[str], ...]:
    """The ``cut_mask`` and ``cut_nodes`` cells of a column of cut masks;
    ``names[m]`` is the quoted ``node_set_names`` entry of mask m."""
    ms = masks.tolist()
    return map(str, ms), map(names.__getitem__, ms)


def _write_csv(out: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write rows of ``_fmt`` cells under ``header``, one LF-ended line each."""
    lines = map(",".join, itertools.chain([_fmt_row(header)], rows))
    text = "".join(line + "\n" for line in lines)
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _scheme_list(text: str, allowed: Sequence[str]) -> list[str]:
    picked = [tok.strip() for tok in text.split(",") if tok.strip()]
    for tok in picked:
        if tok not in allowed:
            raise SchemaError(f"unknown scheme {tok!r}; pick from {','.join(allowed)}")
    if not picked:
        raise SchemaError("scheme list is empty")
    return picked


def _sweep_grid(args: argparse.Namespace, param: str = "sigma2") -> SweepGrid:
    return SweepGrid(param, 1e-4, 1e4, args.grid_points, args.refine_iters)


# ---------------------------------------------------------------------------
# twrc-sweep


def cmd_twrc_sweep(args: argparse.Namespace) -> int:
    if not (0.0 < args.d_min <= args.d_max < 1.0):
        raise SchemaError(
            f"need 0 < d-min <= d-max < 1, got [{args.d_min}, {args.d_max}]"
        )
    if args.steps < 1:
        raise SchemaError("steps must be >= 1")
    schemes = _scheme_list(args.schemes, TWRC_SCHEMES)
    grid = _sweep_grid(args)
    ds = np.linspace(args.d_min, args.d_max, args.steps).tolist()
    cfgs = [TwrcConfig(d, args.gamma, args.power) for d in ds]
    header = ["d", "sum_NNC", "sum_AF", "sum_CF", "sigma2_NNC", "alpha_AF", "sigma2_CF"]
    rows = [{h: None for h in header} | {"d": d} for d in ds]
    for scheme in schemes:
        key = "alpha_AF" if scheme == "AF" else f"sigma2_{scheme}"
        for cells, res in zip(rows, twrc_sweep_rates(cfgs, scheme, grid)):
            cells[f"sum_{scheme}"] = res.sum_rate
            cells[key] = res.param
    _write_csv(args.out, header, (_fmt_row(cells[h] for h in header) for cells in rows))
    return 0


# ---------------------------------------------------------------------------
# irc-sweep


def cmd_irc_sweep(args: argparse.Namespace) -> int:
    if args.p_db_max < args.p_db_min:
        raise SchemaError("p-db-max must be >= p-db-min")
    if args.steps < 1:
        raise SchemaError("steps must be >= 1")
    schemes = _scheme_list(args.schemes, IRC_SCHEMES)
    grid = _sweep_grid(args)
    pdbs = np.linspace(args.p_db_min, args.p_db_max, args.steps).tolist()
    gains = (args.g13, args.g23, args.g14, args.g24, args.g15, args.g25)
    cfgs = [IrcConfig(*gains, r0=args.r0, power=db_to_power(pdb)) for pdb in pdbs]
    header = ["P_dB", "sum_NNC_T2", "sum_NNC_T3", "sum_NNC_best", "sum_CF", "sum_HF",
              "sigma2_NNC_T2", "sigma2_NNC_T3", "sigma2_CF", "sigma2_HF"]
    col = {"NNC-T2": "NNC_T2", "NNC-T3": "NNC_T3", "CF": "CF", "HF": "HF"}
    rows = [{h: None for h in header} | {"P_dB": pdb} for pdb in pdbs]
    for scheme in schemes:
        for cells, res in zip(rows, irc_sweep_rates(cfgs, scheme, grid)):
            cells[f"sum_{col[scheme]}"] = res.sum_rate
            cells[f"sigma2_{col[scheme]}"] = res.sigma2
    nnc = [f"sum_{col[s]}" for s in schemes if s.startswith("NNC")]
    if nnc:
        for cells in rows:
            cells["sum_NNC_best"] = max(cells[k] for k in nnc)
    _write_csv(args.out, header, (_fmt_row(cells[h] for h in header) for cells in rows))
    return 0


# ---------------------------------------------------------------------------
# gap-check


def cmd_gap_check(args: argparse.Namespace) -> int:
    if (args.network is None) == (args.random_n is None):
        raise SchemaError("give exactly one of --network FILE or --random-n N")
    nets: list[GaussianNetwork] = []
    if args.network is not None:
        net = configio.load_network(args.network)
        if not isinstance(net, GaussianNetwork):
            raise SchemaError("gap-check needs a gaussian-format network file")
        nets.append(net)
    else:
        n = args.random_n
        if not 2 <= n <= 16:
            raise SchemaError(f"--random-n must be in 2..16, got {n}")
        if args.trials < 1:
            raise SchemaError("--trials must be >= 1")
        rng = np.random.default_rng(args.seed)
        all_to_all = tuple(NodeSet.full(n) for _ in range(n))
        for _ in range(args.trials):
            gains = rng.normal(size=(n, n))
            np.fill_diagonal(gains, 0.0)
            nets.append(GaussianNetwork(gains, args.power, all_to_all))

    header = ["trial", "cut_mask", "cut_nodes", "outer", "inner_raw", "gap", "budget", "ok"]
    certs = [gap_certificate(net, multicast=NodeSet.full(net.n_nodes)) for net in nets]
    names = list(map(_quote, node_set_names(nets[0].n_nodes)))
    rows = [
        zip(
            itertools.repeat(str(trial)),
            *_cut_cells(cert.masks, names),
            *(map(repr, col.tolist())
              for col in (cert.outer, cert.inner_raw, cert.gap, cert.budget)),
            map(_fmt, cert.ok.tolist()),
        )
        for trial, cert in enumerate(certs)
    ]
    # fmax skips NaN, as a running max() from -inf does.
    summary = [
        "summary", None, None, None, None,
        max(float(np.fmax.reduce(c.gap, initial=-math.inf)) for c in certs),
        max(float(np.fmax.reduce(c.budget, initial=-math.inf)) for c in certs),
        all(bool(c.ok.all()) for c in certs),
    ]
    _write_csv(args.out, header, itertools.chain(*rows, [_fmt_row(summary)]))
    return 0


# ---------------------------------------------------------------------------
# eval


def _as_dm(net: Any, bound: str) -> DmNetwork:
    if isinstance(net, DmNetwork):
        return net
    if isinstance(net, (NoiselessNetwork, DeterministicNetwork)):
        return net.to_dm()
    raise SchemaError(
        f"bound {bound!r} needs a discrete network "
        "(format dm, noiseless or deterministic)"
    )


def _load_design(args: argparse.Namespace, dm: DmNetwork) -> CodingDistribution:
    if args.dist is None:
        return CodingDistribution.uniform_copy(dm)
    return configio.load_distribution(args.dist, dm)


def _report_rows(report) -> tuple[list[str], list[list[str]]]:
    header = [
        "cut_mask", "cut_nodes", "dest", "rate_set",
        "raw", "clamped", "flow_term", "penalty_term",
    ]
    rows = [
        _fmt_row([e.cutset.mask, str(e.cutset), e.dest,
                  str(e.rate_set) if e.rate_set is not None else None,
                  e.raw, e.clamped, e.flow_term, e.penalty_term])
        for e in report
    ]
    return header, rows


def _region_rows(region) -> tuple[list[str], list[list[str]]]:
    header = ["cut_mask", "cut_nodes", "value"]
    rows = [_fmt_row([s.mask, str(s), v]) for s, v in region.items()]
    return header, rows


def cmd_eval(args: argparse.Namespace) -> int:
    net = configio.load_network(args.network)
    bound = args.bound

    def multicast_for(n: int, required: bool = False) -> NodeSet | None:
        if args.multicast is None:
            if required:
                raise SchemaError(f"bound {bound!r} needs --multicast")
            return None
        return configio.parse_node_set(args.multicast, n)

    if bound in ("thm1", "thm2", "thm3", "cutset", "cf_ext"):
        dm = _as_dm(net, bound)
        if bound == "thm1":
            dist = _load_design(args, dm)
            report = nnc_multicast_bound(dm, dist, multicast_for(dm.n_nodes, True))
            header, rows = _report_rows(report)
        elif bound == "thm2":
            dist = _load_design(args, dm)
            report = nnc_theorem2_bound(dm, dist)
            header, rows = _report_rows(report)
        elif bound == "thm3":
            if args.dist is None:
                raise SchemaError("bound 'thm3' needs --dist with a superposition design")
            dist = configio.load_distribution(args.dist, dm)
            report = nnc_theorem3_bound(dm, dist)
            header, rows = _report_rows(report)
        elif bound == "cutset":
            family = configio.load_input_family(args.dist, dm)
            report = cutset_outer_bound(dm, family, multicast_for(dm.n_nodes))
            header, rows = _report_rows(report)
        else:
            dist = _load_design(args, dm)
            res = cf_extension_bound(dm, dist)
            header = [
                "row", "group_mask", "group_nodes", "dest",
                "description_cost", "flow", "slack", "ok", "rate",
            ]
            rows = [
                _fmt_row(["constraint", c.group.mask, str(c.group), c.dest,
                          c.description_cost, c.flow, c.slack, c.ok, None])
                for c in res.constraints
            ]
            rows.append(_fmt_row(
                ["result", None, None, None, None, None, None, res.feasible, res.rate]
            ))
    elif bound == "noiseless":
        if not isinstance(net, NoiselessNetwork):
            raise SchemaError("bound 'noiseless' needs a noiseless-format network")
        region = noiseless_region(net, multicast_for(net.n_nodes))
        header, rows = _region_rows(region)
    elif bound == "erasure":
        if not isinstance(net, ErasureNetwork):
            raise SchemaError("bound 'erasure' needs an erasure-format network")
        region = erasure_region(net, multicast_for(net.n_nodes))
        header, rows = _region_rows(region)
    elif bound == "deterministic":
        if not isinstance(net, DeterministicNetwork):
            raise SchemaError("bound 'deterministic' needs a deterministic-format network")
        if args.dist is not None:
            dist = configio.load_distribution(args.dist, net.to_dm())
            if dist.superposition:
                raise SchemaError("deterministic region needs a plain design")
            region = deterministic_region(
                net, dist.q_pmf, dist.input_pmfs, multicast_for(net.n_nodes)
            )
        else:
            region = deterministic_region(net, multicast=multicast_for(net.n_nodes))
        header, rows = _region_rows(region)
    else:
        if not isinstance(net, GaussianNetwork):
            raise SchemaError(f"bound {bound!r} needs a gaussian-format network")
        cuts = enumerate_cutsets(net.n_nodes, multicast_for(net.n_nodes), net.dests)
        outer, inner, _ = gauss_cut_bounds(net, cuts.masks)
        v = inner if bound == "gauss_inner" else outer
        header = ["cut_mask", "cut_nodes", "raw", "clamped"]
        # np.where(0.0 > v, 0.0, v) is max(v, 0.0), -0.0 and NaN included.
        rows = zip(
            *_cut_cells(cuts.masks, list(map(_quote, node_set_names(net.n_nodes)))),
            map(repr, v.tolist()),
            map(repr, np.where(0.0 > v, 0.0, v).tolist()),
        )

    _write_csv(args.out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# parser


_TWRC_FORMULAS = """\
columns and the formulas that produce them:
  sum_NNC, sigma2_NNC  compress-and-forward without binning: per direction the
                       min of a quantize-and-combine cap
                       C((g_rel^2 P + (1+s)P)/(1+s)) and a relay+direct
                       multiple-access cap C(P + g'_rel^2 P) - C(1/s), where
                       C(x) = (1/2)log2(1+x) and s is the quantizer variance;
                       s is grid-swept, then golden-section refined.
  sum_AF, alpha_AF     amplify-and-forward: closed form
                       (1/2)log2((a + sqrt(a^2-b^2))/2) per direction, swept
                       over the amplification factor up to its power limit
                       (boundary included).
  sum_CF, sigma2_CF    classic compress-and-forward: same combining caps at
                       the smallest feasible quantizer variance (closed form,
                       nothing swept).
"""

_IRC_FORMULAS = """\
columns and the formulas that produce them (C(x) = (1/2)log2(1+x), s is the
relay quantizer variance, r0 the digital relay-link rate):
  sum_NNC_T2   joint-decoding compress-and-forward: per-user caps c1, c2 and
               csum, the least of four sum caps of the forms
               C(SNR) + r0 - C(1/s) and C(combined SNR); sum rate
               min(c1⁺ + c2⁺, csum⁺), where x⁺ = max(x, 0).
  sum_NNC_T3   layered compress-and-forward: per-user min of the
               hash-style cap (direct SNR with interference as noise,
               plus r0 minus a description charge) and the classic-CF
               combining cap; no sum constraint.
  sum_NNC_best max of the two NNC rows.
  sum_CF       classic compress-and-forward combining caps; feasible only
               with the quantizer variance above a threshold set by r0
               (with r0 = 0 it falls back to direct transmission).
  sum_HF       hash-and-forward caps; feasible only below the matching
               threshold, which binds because the caps grow with s.
"""

_GAP_FORMULAS = """\
per-cut closed forms (S a cut, G its receiver-side gain block, P the power):
  outer     = (1/2) log2 det(I + (P/2) G G^T) + (min(|S|,|S^c|)/2) log2(2|S|)
  inner_raw = (1/2) log2 det(I + (P/2) G G^T) - |S|/2
  budget    = |S|/2 + (min(|S|,|S^c|)/2) log2(2|S|)
gap = outer - inner_raw; ok is false when gap > budget + 1e-9 (never expected).
The log-det is evaluated once per cut, shared by outer and inner_raw, on the
smaller Gram side: det(I + (P/2) G G^T) = det(I + (P/2) G^T G).
"""

_EVAL_FORMULAS = """\
bounds (per-cut values in bits; C below = conditional mutual information):
  thm1          compress-and-forward inner bound, common multicast set:
                flow I(in-cut inputs; out-cut descriptions + decoder output |
                out-cut inputs, Q) minus the in-cut description penalty.
  thm2          same integrand; eligible decoders per cut are the union of
                the in-cut nodes' destination sets.
  thm3          layered variant with per-node common layers U_k; constrains
                each message group T (rate_set column) separately.
  cutset        outer bound I(in-cut inputs; out-cut outputs | out-cut
                inputs), best over the supplied input family.
  cf_ext        single-source layered compression: per-group decodability
                checks plus the delivered rate when feasible.
  noiseless     per cut, sum of forward link capacities.
  erasure       per cut, sum of sender rates scaled by the probability the
                cut sees them.
  deterministic per cut, conditional entropy of the out-cut outputs given
                the out-cut inputs.
  gauss_inner   (1/2)log2 det(I + (P/2) G G^T) - |S|/2 (raw and clamped).
  gauss_outer   the same log-det plus (min(|S|,|S^c|)/2) log2(2|S|).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nncbound",
        description="Capacity bound calculators for noisy relay networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for randomized modes (deterministic sweeps ignore it)",
    )
    common.add_argument(
        "--out", default="-", help="output CSV path, '-' for stdout (default)"
    )
    common.add_argument(
        "--grid-points", type=int, default=400,
        help="log-spaced samples per parameter sweep (default 400)",
    )
    common.add_argument(
        "--refine-iters", type=int, default=60,
        help="golden-section refinement steps after the grid pass (default 60)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tw = sub.add_parser(
        "twrc-sweep",
        parents=[common],
        help="two-way relay schemes vs relay position",
        description="Sweep the relay position of the two-way relay line "
        "geometry and print the best sum rate per scheme.",
        epilog=_TWRC_FORMULAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tw.add_argument("--gamma", type=float, default=3.0, help="path-loss exponent")
    tw.add_argument("--power", type=float, default=10.0, help="per-node power limit")
    tw.add_argument("--d-min", type=float, default=0.05)
    tw.add_argument("--d-max", type=float, default=0.5)
    tw.add_argument("--steps", type=int, default=10, help="number of positions")
    tw.add_argument(
        "--schemes", default=",".join(TWRC_SCHEMES),
        help=f"comma list from {{{','.join(TWRC_SCHEMES)}}}",
    )
    tw.set_defaults(func=cmd_twrc_sweep)

    irc = sub.add_parser(
        "irc-sweep",
        parents=[common],
        help="interference-relay schemes vs transmit power",
        description="Sweep transmit power (in dB) for the interference "
        "relay topology with a rate-r0 digital relay link.",
        epilog=_IRC_FORMULAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    irc.add_argument("--g13", type=float, default=0.1, help="source 1 -> relay gain")
    irc.add_argument("--g23", type=float, default=0.5, help="source 2 -> relay gain")
    irc.add_argument("--g14", type=float, default=1.0, help="source 1 -> dest 4 gain")
    irc.add_argument("--g24", type=float, default=0.5, help="source 2 -> dest 4 gain")
    irc.add_argument("--g15", type=float, default=0.5, help="source 1 -> dest 5 gain")
    irc.add_argument("--g25", type=float, default=1.0, help="source 2 -> dest 5 gain")
    irc.add_argument("--r0", type=float, default=1.0, help="digital relay-link rate")
    irc.add_argument("--p-db-min", type=float, default=0.0)
    irc.add_argument("--p-db-max", type=float, default=30.0)
    irc.add_argument("--steps", type=int, default=11, help="number of power points")
    irc.add_argument(
        "--schemes", default=",".join(IRC_SCHEMES),
        help=f"comma list from {{{','.join(IRC_SCHEMES)}}}",
    )
    irc.set_defaults(func=cmd_irc_sweep)

    gap = sub.add_parser(
        "gap-check",
        parents=[common],
        help="outer/inner gap certificate per cut",
        description="Check, cut by cut, that the closed-form outer and "
        "inner bounds differ by exactly the size-only budget.",
        epilog=_GAP_FORMULAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    gap.add_argument("--network", help="gaussian-format network JSON file")
    gap.add_argument(
        "--random-n", type=int, help="instead: random networks with this many nodes"
    )
    gap.add_argument("--trials", type=int, default=10, help="random networks to draw")
    gap.add_argument(
        "--power", type=float, default=10.0, help="power limit for random networks"
    )
    gap.set_defaults(func=cmd_gap_check)

    ev = sub.add_parser(
        "eval",
        parents=[common],
        help="evaluate one bound on a network config file",
        description="Evaluate a named bound on a network (and optional "
        "code-design) JSON file; one CSV row per cut/constraint.",
        epilog=_EVAL_FORMULAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ev.add_argument("--bound", required=True, choices=BOUNDS)
    ev.add_argument("--network", required=True, help="network JSON file")
    ev.add_argument("--dist", help="code-design JSON file (defaults per bound)")
    ev.add_argument(
        "--multicast",
        help="destination node set, e.g. '3' or '1,3' (required for thm1)",
    )
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
