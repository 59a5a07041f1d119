"""Per-layer tracing of steinkit, installed from outside the program.

Every layer function is replaced, in each module namespace that calls it,
by a wrapper that records a span: its call count, its inclusive time, and
its self time (inclusive time minus the time of wrapped spans it called).
Counters such as point pairs are recorded at the same boundaries.  Nothing
under ``src/`` is edited; ``Tracer.installed()`` restores every attribute
on exit.

A layer's ``.s`` metric is inclusive time; ``.self_s`` excludes wrapped
children.  All metrics are totals over a run; ``run.py`` divides them by the
number of operations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
import warnings
from collections import defaultdict

import numpy as np

QP_CAP_WARNING = "simplex QP did not reach"
SURROGATE_FIELDS = {"log_density": "discrete.surrogate", "score": "discrete.surrogate"}
# continuous targets have log_density/score, discrete ones log_mass and the relaxed pair
TARGET_FIELDS = {"log_density": "models.log_density", "score": "models.score",
                 "log_mass": "models.log_density", "relaxed_log_mass": "models.log_density",
                 "relaxed_score": "models.score"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._child_time = []  # one accumulator per open span

    def span(self, name, fn, count=None):
        """Wrap ``fn`` as span ``name``; ``count(args, kwargs, result)``
        returns extra counters to add under ``name.<key>``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                self.calls[name] += 1
                self.time[name] += dt
                self.self_time[name] += dt - children
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapped

    def counter(self, name, fn):
        """Count calls only: for functions called thousands of times per
        operation, where a timer would cost more than the call."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- layer-specific wrappers -------------------------------------------

    def timed_fields(self, obj, fields):
        """dataclasses.replace(obj) with each callable field named in
        ``fields`` wrapped as the span given there; fields that ``obj`` lacks
        or leaves None are skipped."""
        changes = {f: self.span(span, getattr(obj, f)) for f, span in fields.items()
                   if getattr(obj, f, None) is not None}
        return dataclasses.replace(obj, **changes)

    def factory(self, fn, fields):
        """Wrap a factory so that the named callables of what it returns are
        spans (``build_discrete_model`` returns ``(target, params)``)."""

        @functools.wraps(fn)
        def build(*args, **kwargs):
            built = fn(*args, **kwargs)
            if isinstance(built, tuple):
                return (self.timed_fields(built[0], fields), *built[1:])
            return self.timed_fields(built, fields)

        return build

    def velocity_field_factory(self, fn):
        build = self.span("steinis.leader_velocity_field", fn)

        @functools.wraps(fn)
        def wrapped_build(*args, **kwargs):
            field = build(*args, **kwargs)
            plain = self.span("steinis.field", field)
            jac = self.span("steinis.field_jacobian", field, count=_rows_counter)

            def traced_field(points, with_jacobian=False):
                if with_jacobian:
                    return jac(points, with_jacobian=True)
                return plain(points)

            return traced_field

        return wrapped_build

    def steinis_runner(self, fn):
        run = self.span("steinis.run_steinis", fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = run(*args, **kwargs)
            schedule = kwargs["schedule"] if "schedule" in kwargs else args[7]
            self.counts["steinis.eps_halvings"] += sum(
                _halvings(schedule.scalar_eps(i), eps) for i, eps in enumerate(result.ensemble.eps_history)
            )
            return result

        return wrapped

    def qp_solver(self, fn):
        solve = self.span("ksd.solve_simplex_qp", fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = solve(*args, **kwargs)
            capped = sum(QP_CAP_WARNING in str(w.message) for w in caught)
            self.counts["ksd.solve_simplex_qp.capped"] += capped
            for w in caught:  # hand the warnings on to the filters outside
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return wrapped

    # -- installation --------------------------------------------------------

    def _patches(self):
        """(namespaces, attribute, replacement factory) for every layer."""
        from steinkit import cli, discrete, gfsvgd, gof, kernels, ksd, steinis, svgd

        span = self.span
        return [
            ((kernels, gof, gfsvgd), "median_bandwidth", lambda f: span("kernels.median_bandwidth", f)),
            ((kernels, ksd, gof), "pairwise_sq_dists", lambda f: span("kernels.pairwise_sq_dists", f, _pairs_xy)),
            ((svgd, gfsvgd, steinis), "stein_direction", lambda f: span("svgd.stein_direction", f, _pairs_direction)),
            ((svgd, gfsvgd), "apply_direction", lambda f: span("svgd.apply_direction", f)),
            ((gfsvgd, discrete), "run_gf_svgd", lambda f: span("gfsvgd.run_gf_svgd", f)),
            ((discrete,), "sample_discrete", lambda f: span("discrete.sample_discrete", f)),
            ((discrete, gof), "pc_log_density", lambda f: span("discrete.pc_log_density", f)),
            ((discrete, gof), "base_surrogate", lambda f: self.factory(f, SURROGATE_FIELDS)),
            ((discrete, gof), "smooth_relaxation_surrogate", lambda f: self.factory(f, SURROGATE_FIELDS)),
            ((discrete,), "exact_pc_surrogate", lambda f: self.factory(f, SURROGATE_FIELDS)),
            ((discrete,), "ising_surrogate", lambda f: self.factory(f, SURROGATE_FIELDS)),
            ((gof,), "continuize_data", lambda f: span("discrete.continuize_data", f)),
            ((steinis,), "leader_velocity_field", self.velocity_field_factory),
            ((steinis,), "run_steinis", self.steinis_runner),
            ((ksd,), "stein_gram", lambda f: span("ksd.stein_gram", f, _pairs_square)),
            ((ksd, gof), "gf_stein_gram", lambda f: span("ksd.gf_stein_gram", f)),
            ((gof,), "gof_gram", lambda f: span("gof.gof_gram", f)),
            ((gof,), "bootstrap_null", lambda f: span("gof.bootstrap_null", f)),
            ((gof,), "gof_test", lambda f: span("gof.gof_test", f)),
            ((ksd,), "solve_simplex_qp", self.qp_solver),
            ((ksd,), "simplex_project", lambda f: self.counter("ksd.simplex_project", f)),
            ((ksd,), "bbis_weights", lambda f: span("ksd.bbis_weights", f)),
            ((cli,), "validate_config", lambda f: span("cli.validate_config", f)),
            ((cli,), "build_continuous_model", lambda f: self.factory(f, TARGET_FIELDS)),
            ((cli,), "build_discrete_model", lambda f: self.factory(f, TARGET_FIELDS)),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for namespaces, attr, make in self._patches():
                # one wrapper per layer, shared by every namespace that calls it
                original = getattr(namespaces[0], attr)
                replacement = make(original)
                for ns in namespaces:
                    if getattr(ns, attr) is not original:
                        raise RuntimeError(f"{ns.__name__}.{attr} is not {namespaces[0].__name__}.{attr}")
                    saved.append((ns, attr, original))
                    setattr(ns, attr, replacement)
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)


def _rows(a) -> int:
    return int(np.atleast_2d(a).shape[0])


def _pairs_xy(args, kwargs, result):
    return {"pairs": _rows(args[0]) * _rows(args[1])}


def _pairs_square(args, kwargs, result):
    return {"pairs": _rows(args[0]) ** 2}


def _pairs_direction(args, kwargs, result):
    src = args[0]
    evals = kwargs.get("eval_positions", args[5] if len(args) > 5 else None)
    return {"pairs": _rows(src) * _rows(src if evals is None else evals)}


def _rows_counter(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _halvings(scheduled: float, taken: float) -> int:
    """Number of times ``scheduled`` was halved to give ``taken``."""
    n = 0
    while taken < scheduled and n < 64:
        scheduled *= 0.5
        n += 1
    return n
