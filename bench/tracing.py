"""Benchmark-side tracing of valuefield: spans around calls into each module's
public functions, and a delegating field proxy that times and counts
``alpha``/``gradient`` calls made by the layers above the field.

Nothing here changes a result: every wrapper returns exactly what the wrapped
call returns, so a traced run is bit-identical to an untraced one. Spans stay
in memory and are written out at the end of a run. Per-point calls (field
evaluations and Crank-Nicolson steps) are aggregated per name instead of being
recorded one by one, so their memory cost does not grow with the run length.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

_now = time.perf_counter

# Per-name aggregate: [calls, total_s, self_s, work, gradient_calls_below]
CALLS, TOTAL, SELF, WORK, GRADS = range(5)


class Tracer:
    """Span stack with per-name aggregates. Self time is a span's duration
    minus the time covered by its direct child spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.spans: list[tuple] = []  # (id, parent_id, name, start, end)
        self._stack: list[list] = []   # [id, name, start, child_s, grads]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _now(), 0.0, 0])

    def leave(self, work: int = 0, record: bool = True, gradient: bool = False) -> None:
        end = _now()
        sid, name, start, child, grads = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st[CALLS] += 1
        st[TOTAL] += dur
        st[SELF] += dur - child
        st[WORK] += work
        st[GRADS] += grads
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            if gradient:
                parent[4] += 1
        if record:
            self.spans.append((sid, parent[0] if parent else 0, name, start, end))

    def count(self, name: str, work: int) -> None:
        self.stats[name][WORK] += work

    def take_stats(self) -> dict:
        """Return the aggregates collected since the last call and reset them."""
        snap = {k: list(v) for k, v in self.stats.items()}
        self.stats.clear()
        return snap

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def traced(tracer: Tracer, name, fn, work=None, record=True):
    """Wrap ``fn`` in a span. ``name`` may be a callable of the call's
    arguments; ``work(result, *args, **kwargs)`` gives the span's work count."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name(*args, **kwargs) if callable(name) else name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.leave(work(result, *args, **kwargs) if work and result is not None else 0,
                         record=record)
    return wrapper


def make_traced_field_class(vf):
    """Build the proxy class against the loaded valuefield package."""
    # bound now: install() replaces the module attributes with factories
    kinds = ((vf.field.GridField, "grid"), (vf.field.AnalyticField, "analytic"))

    class TracedField(vf.field.AlphaField):
        """Delegating field: same answers as ``inner``, each call timed and counted."""

        def __init__(self, inner, tracer: Tracer):
            self._inner = inner
            self._tracer = tracer
            kind = next((k for cls, k in kinds if isinstance(inner, cls)), "other")
            self._alpha_name = f"field.alpha.{kind}"
            self._gradient_name = f"field.gradient.{kind}"
            self.domain = inner.domain
            self.fd_scale = inner.fd_scale

        def alpha(self, p):
            tracer = self._tracer
            tracer.enter(self._alpha_name)
            try:
                return self._inner.alpha(p)
            finally:
                tracer.leave(record=False)

        def gradient(self, p):
            tracer = self._tracer
            tracer.enter(self._gradient_name)
            try:
                return self._inner.gradient(p)
            finally:
                tracer.leave(record=False, gradient=True)

        def _fd_steps(self, p):  # covariant_derivative reads the field's FD steps
            return self._inner._fd_steps(p)

    return TracedField


def _nodes(n, method):
    return int(n) + 1 if method == "simpson" else int(n)


def install(tracer: Tracer, vf, traced_field_cls):
    """Route valuefield's public calls through spans. Returns an undo function.

    Module attributes are replaced, so calls made by the scenarios, and calls
    the modules make to each other through their module globals, are traced
    too. Fields that scenarios build internally are wrapped in the proxy at
    construction.
    """
    f, geo, qm, cos, cli = vf.field, vf.geometry, vf.quantum, vf.cosmology, vf.cli

    def factory(cls):
        return lambda *a, **k: traced_field_cls(cls(*a, **k), tracer)

    def si_nodes(result, fn, fld, x_ref, lo, hi, n=256, method="simpson", *a, **k):
        return _nodes(n, method)

    def si3_nodes(result, fn, fld, x_ref, lo, hi, n=32, method="simpson", *a, **k):
        return _nodes(n, method) ** 3

    def top_steps(result, *a, **k):
        return len(result.tau if hasattr(result, "tau") else result.s) - 1

    patches = {
        (f, "AnalyticField"): factory(f.AnalyticField),
        (f, "ConstantField"): factory(f.ConstantField),
        (f, "scaled_integral"): traced(tracer, "field.scaled_integral", f.scaled_integral,
                                       work=si_nodes),
        (f, "scaled_integral_3d"): traced(tracer, "field.scaled_integral_3d",
                                          f.scaled_integral_3d, work=si3_nodes),
        (geo, "integrate_geodesic"): traced(tracer, "geometry.integrate_geodesic",
                                            geo.integrate_geodesic, work=top_steps),
        (geo, "integrate_coordinate"): traced(tracer, "geometry.integrate_coordinate",
                                              geo.integrate_coordinate, work=top_steps),
        (qm, "evolve"): traced(tracer, "quantum.evolve", qm.evolve),
        (qm, "schrodinger_step"): traced(
            tracer, lambda psi, ham, *a, **k: f"quantum.cn_step.{ham.kind}",
            qm.schrodinger_step, record=False),
        (qm, "position_expectation"): traced(tracer, "quantum.position_expectation",
                                             qm.position_expectation),
        (cos, "local_bound_check"): traced(tracer, "cosmology.local_bound_check",
                                           cos.local_bound_check),
        (cli, "load_config"): traced(tracer, "cli.config", cli.load_config),
        (cli, "validate_config"): traced(tracer, "cli.config", cli.validate_config),
    }
    originals = {key: getattr(*key) for key in patches}
    for (mod, attr), repl in patches.items():
        setattr(mod, attr, repl)

    def undo():
        for (mod, attr), orig in originals.items():
            setattr(mod, attr, orig)
    return undo


# -- per-layer metrics ------------------------------------------------------

SCENARIO_NAMES = ("arithmetic-check", "field-calculus", "geodesic", "schrodinger",
                  "cosmology", "bound-check")

PER_LAYER_UNITS = {
    **{f"scenarios.{n}_s": "s" for n in SCENARIO_NAMES},
    "cli.config_ms": "ms",
    "cli.artifact_bytes": "bytes",
    "field.grid.alpha_us": "us",
    "field.grid.gradient_us": "us",
    "field.analytic.alpha_us": "us",
    "field.analytic.gradient_us": "us",
    "field.alpha_calls": "count",
    "field.gradient_calls": "count",
    "field.self_s": "s",
    "field.scaled_integral_us_per_node": "us",
    "field.scaled_integral_3d_us_per_node": "us",
    "geometry.integrate_s": "s",
    "geometry.self_s": "s",
    "geometry.us_per_step": "us",
    "geometry.rk4_steps": "count",
    "geometry.step_accept_ratio": "ratio",
    "geometry.field_share": "ratio",
    "quantum.spectral.cn_step_us": "us",
    "quantum.fd.cn_step_us": "us",
    "quantum.position_expectation_ms": "ms",
    "quantum.self_s": "s",
    "cosmology.local_bound_check_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _per_call(snap, name, scale):
    st = snap.get(name)
    return st[TOTAL] / st[CALLS] * scale if st and st[CALLS] else 0.0


def _per_work(snap, name, scale):
    st = snap.get(name)
    return st[TOTAL] / st[WORK] * scale if st and st[WORK] else 0.0


def _sum(snap, prefix, col):
    return sum(st[col] for name, st in snap.items() if name.startswith(prefix))


def pass_metrics(snap: dict) -> dict:
    """Per-layer metrics of one traced pass. A metric whose layer did no work
    in the pass reads 0."""
    m = {f"scenarios.{n}_s": snap[f"scenarios.{n}"][TOTAL] if f"scenarios.{n}" in snap else 0.0
         for n in SCENARIO_NAMES}
    runs = _sum(snap, "scenarios.", CALLS)
    m["cli.config_ms"] = _sum(snap, "cli.config", TOTAL) * 1e3 / runs if runs else 0.0
    m["cli.artifact_bytes"] = _sum(snap, "cli.artifact_bytes", WORK)
    for kind in ("grid", "analytic"):
        for op in ("alpha", "gradient"):
            m[f"field.{kind}.{op}_us"] = _per_call(snap, f"field.{op}.{kind}", 1e6)
    m["field.alpha_calls"] = _sum(snap, "field.alpha.", CALLS)
    m["field.gradient_calls"] = _sum(snap, "field.gradient.", CALLS)
    m["field.self_s"] = _sum(snap, "field.", SELF)
    m["field.scaled_integral_us_per_node"] = _per_work(snap, "field.scaled_integral", 1e6)
    m["field.scaled_integral_3d_us_per_node"] = _per_work(snap, "field.scaled_integral_3d", 1e6)

    integrate_s = _sum(snap, "geometry.", TOTAL)
    geometry_self = _sum(snap, "geometry.", SELF)
    attempts = _sum(snap, "geometry.", GRADS) / 4  # four gradient calls per RK4 step
    top = _sum(snap, "geometry.", WORK)
    # A rejected RK4 step is retried as two half steps, so the attempts form a
    # full binary tree per top-level step: accepted = (attempts + top) / 2.
    accepted = (attempts + top) / 2
    m["geometry.integrate_s"] = integrate_s
    m["geometry.self_s"] = geometry_self
    m["geometry.us_per_step"] = integrate_s / attempts * 1e6 if attempts else 0.0
    m["geometry.rk4_steps"] = attempts
    m["geometry.step_accept_ratio"] = accepted / attempts if attempts else 0.0
    m["geometry.field_share"] = 1.0 - geometry_self / integrate_s if integrate_s else 0.0

    m["quantum.spectral.cn_step_us"] = _per_call(snap, "quantum.cn_step.spectral", 1e6)
    m["quantum.fd.cn_step_us"] = _per_call(snap, "quantum.cn_step.fd", 1e6)
    m["quantum.position_expectation_ms"] = _per_call(snap, "quantum.position_expectation", 1e3)
    m["quantum.self_s"] = _sum(snap, "quantum.", SELF)
    m["cosmology.local_bound_check_ms"] = _per_call(snap, "cosmology.local_bound_check", 1e3)
    return m


class Context:
    """What a task sees of the harness: a field wrapper, spans and counters.
    Untraced (``tracer`` None) every hook is a no-op and fields pass through."""

    def __init__(self, tracer: Tracer | None = None, traced_field_cls=None):
        self.tracer = tracer
        self._field_cls = traced_field_cls

    def wrap(self, field):
        return field if self.tracer is None else self._field_cls(field, self.tracer)

    @contextlib.contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield
            return
        self.tracer.enter(name)
        try:
            yield
        finally:
            self.tracer.leave()

    def count(self, name: str, work: int) -> None:
        if self.tracer is not None:
            self.tracer.count(name, work)


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
