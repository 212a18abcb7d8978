"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nncbound.cli import main as cli_main  # noqa: E402

TINY = {
    "sweep": dict(irc_steps=2, twrc_steps=2),
    "gap": dict(n=5, sample_cuts=30),
    "dm_inner": dict(n=4, pool=2),
    "dm_outer": dict(n=4, family=3, pool=2, sample_cuts=2),
}


def tiny(name, seed, tmp_path, **sizes):
    cls = workloads.WORKLOADS[name]
    w = type(f"Tiny{cls.__name__}", (cls,), {**TINY[name], **sizes})(seed, tmp_path)
    w.setup()
    return w


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_passes_checks(name, tmp_path):
    runner = run.Runner(tiny(name, 3, tmp_path), cli_main)
    runner.setup_checks(ROOT)
    timed, outputs = runner.loop(0.0, time.perf_counter())
    assert runner.failures == []
    assert sorted(outputs) == [0, 1, 2] and sorted(timed) == [1, 2]


def test_every_hook_resolves():
    assert hooks.missing_hooks() == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_csv_is_byte_identical(name, tmp_path):
    runner = run.Runner(tiny(name, 4, tmp_path), cli_main)
    plain = runner.op(1)
    tracer = hooks.Tracer()
    traced = runner.op(1, tracer)
    assert runner.failures == []
    assert traced[1] == plain[1]
    assert tracer.top_level_s > 0
    assert all(s.calls > 0 or s.counts for s in tracer.layers.values() if s.s > 0)


def test_hooks_are_removed_after_each_op(tmp_path):
    import nncbound.gauss_bounds as gb

    before = gb.scalar_maximize
    run.Runner(tiny("sweep", 5, tmp_path), cli_main).op(0, hooks.Tracer())
    assert gb.scalar_maximize is before


def test_missing_hook_target_reports_layer_absent(tmp_path, monkeypatch):
    import nncbound.gauss_bounds as gb

    monkeypatch.delattr(gb, "max_weighted_sum")
    missing = hooks.missing_hooks()
    assert [h.name for h in missing] == ["nncbound.gauss_bounds.max_weighted_sum"]
    runner = run.Runner(tiny("gap", 5, tmp_path), cli_main)
    tracer = hooks.Tracer()
    assert runner.op(0, tracer) is not None
    assert tracer.stats("netmodel.max_weighted_sum").calls == 0
    values = run.layer_values(tracer, 1, 1.0, 1, 1.0, missing)
    gone = {"netmodel.max_weighted_sum." + stat for stat in ("calls", "s", "self_s")}
    assert gone | {"cli.self_s"} == {name for name, _, _ in run.LAYER_METRICS} - set(values)


@pytest.mark.parametrize("target,gone", [
    # One of three enumerate_cutsets hooks: the whole layer goes.
    ("nncbound.dm_bounds.enumerate_cutsets", {"calls", "s", "self_s", "cuts"}),
    # The miss counter: misses and the hit ratio go, the span stays.
    ("nncbound.infocalc.entropy", {"misses", "hit_ratio"}),
])
def test_one_missing_hook_removes_every_metric_it_feeds(target, gone, tmp_path, monkeypatch):
    # As if a refactor had renamed the hooked function.
    renamed = [replace(h, attr=h.attr + "_renamed") if h.name == target else h
               for h in hooks.HOOKS]
    monkeypatch.setattr(hooks, "HOOKS", tuple(renamed))
    layer = next(h.layer for h in renamed if h.attr == target.rsplit(".", 1)[1] + "_renamed")
    w = tiny("dm_inner", 5, tmp_path)
    tracer = hooks.Tracer()
    assert run.Runner(w, cli_main).op(0, tracer) is not None
    values = run.layer_values(tracer, 1, 1.0, 1, 1.0, hooks.missing_hooks())
    absent = {name for name, _, _ in run.LAYER_METRICS} - set(values)
    assert absent == {f"{layer}.{stat}" for stat in gone} | {"cli.self_s"}


def test_nested_layer_call_is_counted_once(tmp_path):
    # load_input_family reads a product design through load_distribution.
    w = tiny("dm_inner", 6, tmp_path)
    runner = run.Runner(w, cli_main)
    net, design = w.input_files(0)
    tracer = hooks.Tracer()
    with hooks.installed(tracer):
        code, _, _ = runner.call(
            ["eval", "--bound", "cutset", "--network", str(net), "--dist", str(design)])
    assert code == 0
    assert tracer.stats("configio.load").calls == 2


def test_same_seed_same_digests_other_seed_other_inputs(tmp_path):
    def digest(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        w = tiny("dm_outer", seed, d)
        _, outputs = run.Runner(w, cli_main).loop(0.0, time.perf_counter())
        return run.digests(w, outputs)

    a, b, c = digest(7, "a"), digest(7, "b"), digest(8, "c")
    assert a == b
    assert c["inputs_sha256"] != a["inputs_sha256"]
    assert c["csv_sha256"] != a["csv_sha256"]


@pytest.mark.parametrize("name,column,by", [
    ("sweep", "sum_NNC_best", 1e-6),
    ("gap", "outer", 1e-6),
    ("gap", "ok", None),
    ("dm_inner", "raw", 10.0),
    ("dm_outer", "raw", 1e-6),
])
def test_checks_can_fail(name, column, by, tmp_path):
    w = tiny(name, 9, tmp_path)
    call = run.Runner(w, cli_main).call
    outputs = [call(argv)[1] for argv in w.ops(0)]
    assert w.check(0, outputs, call) == []
    bad = [_corrupt(outputs[0], column, by)] + outputs[1:]
    assert w.check(0, bad, call) != []


def _corrupt(text, column, by):
    """Add ``by`` to ``column`` in the first data row of a CSV, or set it
    to ``false`` when ``by`` is None."""
    header, rows = workloads.parse_csv(text)
    cell = rows[0][column]
    rows[0][column] = "false" if by is None else repr(float(cell) + by)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([r[h] for h in header] for r in rows)
    return buf.getvalue()


def test_argv_floats_are_plain_reprs():
    assert workloads.fnum(np.float64(0.1)) == "0.1"
    argv = workloads.Sweep(1, Path(".")).ops(0)[0]
    assert not any("np." in a for a in argv)


def test_tail_latency_keeps_ten_samples_above():
    lat = [float(i) for i in range(40)]
    value, pct = run.tail_latency(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100.0 * 29 / 39)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        bench["command"] + ["--workload", "gap", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        run.LAYER_METRICS)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests" / "golden", tmp_path / "tests" / "golden")
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert [name for name, _, _ in run.LAYER_METRICS] == list(result["metrics"])
    assert result["metrics"]["gauss_bounds.scalar_maximize.calls"]["value"] == 32


def test_uncaught_exception_is_a_failed_operation(tmp_path):
    def broken(argv):
        raise RuntimeError("boom")

    runner = run.Runner(tiny("gap", 2, tmp_path), broken)
    assert runner.op(0) is None
    assert runner.attempted == 1 and "exit 1" in runner.failures[0]
    assert "RuntimeError: boom" in runner.failures[0]


def test_gated_latency_is_divided_by_the_reference():
    timed = {1: (2.0, [], 0.5), 2: (3.0, [], 1.0), 3: (8.0, [], 2.0)}
    w = workloads.Gap(1, Path("."))
    gated, raw, _ = run.e2e_metrics(w, timed, [0.4])
    assert gated["op_p50_ref"]["value"] == 4.0
    assert gated["work_per_ref"]["value"] == pytest.approx(w.units_per_op * 3 / 11.0)
    assert raw["op_p50_s"]["value"] == 3.0
    assert raw["ref_p50_s"]["value"] == 1.0
    assert run.Reference().seconds() > 0


def test_what_the_loop_keeps_does_not_grow_with_ops(tmp_path):
    # peak_rss_mb is gated: a faster program completes more ops, and the
    # harness must not hold more memory because of it.
    def kept(seconds):
        w = tiny("gap", 1, tmp_path / str(seconds), n=7, sample_cuts=2)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        timed, outputs = run.Runner(w, cli_main).loop(seconds, time.perf_counter())
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        return len(timed), held, outputs

    few, held_few, outputs = kept(0.0)
    many, held_many, _ = kept(2.0)
    assert sorted(outputs) == list(range(run.DIGEST_OPS))
    csv_bytes = len(outputs[1][0])
    assert csv_bytes > 5_000 and many > few + 4
    assert (held_many - held_few) / (many - few) < csv_bytes / 4
