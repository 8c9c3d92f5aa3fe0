"""Tests of the benchmark itself: the field proxy, NaN-safe checks, seeded
inputs, trace accounting and the refusal to run without the sources.

Run from the root of a checkout: ``python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

vf = run.import_valuefield()
TracedField = tracing.make_traced_field_class(vf)


def _workload(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](vf, seed, tmp_path / name)
    wl.prepare()
    return wl


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("field", [
    vf.field.GridField(np.random.default_rng(0).normal(size=(3, 4, 4, 4)),
                       [0.0, 0.0, 0.0, 0.0], [0.5, 0.25, 0.25, 0.25]),
    vf.field.AnalyticField(lambda p: math.sin(p @ [0.1, 0.7, -0.3, 0.2])),
    vf.field.ConstantField(0.4),
    vf.field.ConstantField(float("nan")),
], ids=["grid", "analytic-fd", "constant", "constant-nan"])
def test_proxy_returns_exactly_what_the_field_returns(field):
    tracer = tracing.Tracer()
    proxy = TracedField(field, tracer)
    for p in ([0.3, 0.2, 0.3, 0.4], [0.7, 0.5, 0.1, 0.6]):
        p = np.array(p)
        assert _bits(proxy.alpha(p)) == _bits(field.alpha(p))
        assert _bits(proxy.gradient(p)) == _bits(field.gradient(p))
    stats = tracer.take_stats()
    assert sum(st[tracing.CALLS] for name, st in stats.items() if ".alpha." in name) == 2
    assert sum(st[tracing.CALLS] for name, st in stats.items() if ".gradient." in name) == 2


def test_expect_close_fails_on_nan():
    with pytest.raises(workloads.Mismatch):
        workloads.expect_close("nan", [1.0, float("nan")], [1.0, 1.0], 1.0, 1.0)
    with pytest.raises(workloads.Mismatch):
        workloads.expect_close("nan reference", 1.0, float("nan"), 1.0, 1.0)
    workloads.expect_close("ok", [1.0, 2.0], [1.0, 2.0 + 1e-13], 1e-12)


@pytest.mark.parametrize("name, which", [("grid-trajectory", "wave"),
                                         ("grid-trajectory", "smooth"),
                                         ("bulk-field", None)])
def test_task_fed_a_nan_field_counts_as_failed(name, which, tmp_path):
    wl = _workload(name, 1, tmp_path)
    nan_field = vf.field.ConstantField(float("nan"))
    if name == "grid-trajectory":
        # a NaN alpha with a zero gradient slips past the NaN-blind
        # conservation monitor; the independent checks must still fail it
        ref = wl.fields[which]
        wl.fields[which] = (nan_field, *ref[1:])
        tasks = [t for t in wl.tasks if t.name.startswith(
            "geodesic-analytic" if which == "wave" else "geodesic-grid")]
    else:
        wl.analytic = nan_field
        tasks = [t for t in wl.tasks if t.name.endswith("-analytic")]
    wl.tasks = tasks
    runner = run.Runner(wl)
    runner.run_pass(tracing.Context())
    assert tasks and runner.failed == runner.attempted == len(tasks)


def test_seed_determines_inputs(tmp_path):
    a = _workload("bulk-field", 7, tmp_path / "a")
    b = _workload("bulk-field", 7, tmp_path / "b")
    c = _workload("bulk-field", 8, tmp_path / "c")
    assert _bits(a.grid.samples) == _bits(b.grid.samples)
    assert _bits(a.grid.samples) != _bits(c.grid.samples)
    s1 = _workload("scenarios", 1, tmp_path / "s1")
    s2 = _workload("scenarios", 2, tmp_path / "s2")
    cfg1 = (tmp_path / "s1/scenarios/arithmetic-check.cfg").read_text()
    cfg2 = (tmp_path / "s2/scenarios/arithmetic-check.cfg").read_text()
    assert cfg1 != cfg2 and len(s1.tasks) == len(s2.tasks) == 6


@pytest.mark.parametrize("name", ["grid-trajectory", "bulk-field", "scenarios"])
@pytest.mark.parametrize("seed", [11, 12])
def test_two_seeds_pass_every_check(name, seed, tmp_path):
    runner = run.Runner(_workload(name, seed, tmp_path))
    runner.run_pass(tracing.Context())
    assert runner.failed == 0 and runner.attempted > 0


def _traced_pass(wl):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, vf, TracedField)
    try:
        outputs = run.Runner(wl).run_pass(tracing.Context(tracer, TracedField))
    finally:
        undo()
    return outputs, tracer.take_stats()


def test_traced_pass_is_bit_identical_and_accounts_for_integrate_time(tmp_path):
    wl = _workload("grid-trajectory", 3, tmp_path)
    plain = run.Runner(wl).run_pass(tracing.Context())
    traced, stats = _traced_pass(wl)
    assert all(out is not None for out in plain.values())
    assert all(workloads.identical(traced[k], plain[k]) for k in plain)
    m = tracing.pass_metrics(stats)
    # field calls happen only inside geometry spans on this workload
    assert m["field.self_s"] + m["geometry.self_s"] == pytest.approx(
        m["geometry.integrate_s"], rel=1e-9)
    assert 0.0 < m["geometry.field_share"] < 1.0
    assert m["geometry.step_accept_ratio"] < 1.0  # the halving task halves


def test_gradient_calls_are_four_per_rk4_step_without_halving(tmp_path):
    wl = _workload("grid-trajectory", 3, tmp_path)
    wl.tasks = [t for t in wl.tasks if t.name in ("geodesic-grid-0", "coordinate-grid")]
    _, stats = _traced_pass(wl)
    m = tracing.pass_metrics(stats)
    steps = 2 * round(wl.SPAN / wl.STEP)
    assert m["field.gradient_calls"] == 4 * steps
    assert m["geometry.rk4_steps"] == steps
    assert m["geometry.step_accept_ratio"] == 1.0


def test_scenarios_pass_traces_every_scenario(tmp_path):
    wl = _workload("scenarios", 4, tmp_path)
    plain = run.Runner(wl).run_pass(tracing.Context())
    traced, stats = _traced_pass(wl)
    assert all(workloads.identical(traced[k], plain[k]) for k in plain)
    m = tracing.pass_metrics(stats)
    for name in tracing.SCENARIO_NAMES:
        assert m[f"scenarios.{name}_s"] > 0.0
    assert m["geometry.rk4_steps"] == 10000 and m["geometry.step_accept_ratio"] == 1.0
    assert m["quantum.spectral.cn_step_us"] > 0.0 and m["cli.artifact_bytes"] > 0


def test_tail_has_ten_samples_above_it():
    samples = [float(i) for i in range(100)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bulk-field", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
