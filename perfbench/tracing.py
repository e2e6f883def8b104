"""Per-layer tracing by wrappers installed on the program's module attributes.

Layers are the ``narxcomp`` modules.  ``install`` replaces public functions
with wrappers that time each call; the original attributes come back on
``uninstall``.  A function bound into another module with ``from ...
import`` is wrapped where it is bound as well (``fixed_points`` lives in
``narxcomp.compensator`` too), so every call site goes through a wrapper.

Three kinds of wrapper:

* span: a record (name, start, end, parent span) kept in memory and
  written out at the end; for calls made a few hundred times per pass;
* timed: call count, total and self time only; for calls made per step;
* counted: a call count only, for the hottest calls such as
  ``AlgebraicPolynomial.degree``.

Self time is a call's duration minus the time covered by the spans and
timed calls made inside it.  Runs that measure end-to-end metrics install
nothing.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()  # work items: steps, samples, runs, bytes ...
        self._stack = []  # per open call: [time covered by children, span index]
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, span, observe=None):
        stack = self._stack
        spans = self.spans
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else -1
            index = parent_span
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent_span])
            frame = [0.0, index]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span:
                    spans[index][1] = start
                    spans[index][2] = end
                if observe is not None:
                    observe(args, None if error else result, error)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def install(self):
        from narxcomp import benchmarks, cli, compensator, evaluation, model, poly

        counts = self.counts

        def roots_degree(args, result, error):
            if result is not None and 1 <= len(result.roots) <= 3:
                counts["poly.solve_roots.deg%d" % len(result.roots)] += 1

        poly_cls = poly.AlgebraicPolynomial
        self._set(poly_cls, "degree", self._count("poly.degree", poly_cls.degree))
        self._set(poly, "durand_kerner", self._count("poly.durand_kerner", poly.durand_kerner))
        self._set(poly, "solve_roots",
                  self._wrap("poly.solve_roots", poly.solve_roots, False, roots_degree))

        # steps and holds are read off the session before and after the call
        timed_run = self._wrap("compensator.run", compensator.run, True)

        def run(session, r_series):
            steps, holds = session.steps, session.hold_count
            try:
                return timed_run(session, r_series)
            finally:
                counts["compensator.steps"] += session.steps - steps
                counts["compensator.holds"] += session.hold_count - holds

        self._set(compensator, "run", run)
        for attr in ("hysteresis_comp_polys", "dynamic_comp_poly"):
            self._set(compensator, attr,
                      self._wrap("compensator.build", getattr(compensator, attr), False))
        self._set(compensator, "select_root",
                  self._wrap("compensator.select_root", compensator.select_root, False))
        self._set(compensator, "solve_static",
                  self._wrap("compensator.solve_static", compensator.solve_static, False))

        fixed = self._wrap("model.fixed_points", model.fixed_points, False)
        self._set(model, "fixed_points", fixed)
        self._set(compensator, "fixed_points", fixed)
        self._set(model, "jacobian_eigen",
                  self._wrap("model.jacobian_eigen", model.jacobian_eigen, False))

        def free_run_samples(args, result, error):
            counts["model.simulate_free_run.samples"] += len(args[1])

        self._set(model, "simulate_free_run",
                  self._wrap("model.simulate_free_run", model.simulate_free_run, True,
                             free_run_samples))

        def loop_unsettled(args, result, error):
            if isinstance(error, model.LoopUnsettled):
                counts["model.hysteresis_loop.unsettled"] += 1

        loop = self._wrap("model.hysteresis_loop", model.hysteresis_loop, True, loop_unsettled)
        self._set(model, "hysteresis_loop", loop)

        for cls in (benchmarks.BoucWenPlant, benchmarks.HammersteinHeater):
            name = "benchmarks.%s.simulate" % cls.__name__

            def plant_samples(args, result, error, name=name):
                counts[name + ".samples"] += len(args[1])

            self._set(cls, "simulate", self._wrap(name, cls.simulate, True, plant_samples))
        heater = benchmarks.HammersteinHeater
        self._set(heater, "static_output", staticmethod(
            self._count("benchmarks.HammersteinHeater.static_output", heater.static_output)))

        def band_runs(args, result, error):
            if result is not None:
                counts["evaluation.monte_carlo.runs"] += result.n_runs
                counts["evaluation.monte_carlo.skipped"] += result.n_skipped

        self._set(evaluation, "monte_carlo",
                  self._wrap("evaluation.monte_carlo", evaluation.monte_carlo, True, band_runs))

        def table_cells(args, result, error):
            if result is not None:
                counts["evaluation.table_experiment.cells"] += len(result)
                counts["evaluation.table_experiment.nan_cells"] += sum(
                    1 for row in result if row[2] != row[2]
                )

        self._set(evaluation, "table_experiment",
                  self._wrap("evaluation.table_experiment", evaluation.table_experiment,
                             True, table_cells))

        def written(args, result, error):
            path = args[0]
            if error is None and path != "-":
                counts["cli.bytes_written"] += os.path.getsize(path)

        self._set(cli, "write_rows", self._wrap("cli.write_rows", cli.write_rows, True, written))
        self._set(cli, "main", self._wrap("cli.main", cli.main, True))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Every count so far: call counts and work items."""
        snap = Counter(self.counts)
        snap.update({name + ".calls": n for name, n in self.calls.items()})
        return snap

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in self.spans
                ],
                "calls": dict(self.calls),
                "total_s": dict(self.total),
                "self_s": dict(self.self_time),
                "counts": dict(self.counts),
            }, fh)


def per_layer(tracer, counts, trace_wall_s):
    """The per-layer metrics as {name: (value, unit)}: ``counts`` holds one
    pass's counts; times are per call, step or sample over the whole run."""
    calls, total, self_time, items = (
        tracer.calls, tracer.total, tracer.self_time, tracer.counts)

    def per(seconds, n, scale):
        return seconds * scale / n if n else 0.0

    def count(name):
        return counts.get(name, 0), "count"

    def per_call(name, scale=1e6, unit="us/call"):
        return per(total[name], calls[name], scale), unit

    def per_item(seconds, item, unit, scale=1e6):
        return per(seconds, items[item], scale), unit

    metrics = {
        "poly.solve_roots.calls": count("poly.solve_roots.calls"),
        "poly.solve_roots.us_per_call": per_call("poly.solve_roots"),
        "poly.solve_roots.deg1": count("poly.solve_roots.deg1"),
        "poly.solve_roots.deg2": count("poly.solve_roots.deg2"),
        "poly.solve_roots.deg3": count("poly.solve_roots.deg3"),
        "poly.durand_kerner.calls": count("poly.durand_kerner"),
        "poly.degree.calls": count("poly.degree"),
        "compensator.run.calls": count("compensator.run.calls"),
        "compensator.steps": count("compensator.steps"),
        "compensator.holds": count("compensator.holds"),
        "compensator.run.us_per_step": per_item(
            total["compensator.run"], "compensator.steps", "us/step"),
        "compensator.run.self_us_per_step": per_item(
            self_time["compensator.run"], "compensator.steps", "us/step"),
        "compensator.build.calls": count("compensator.build.calls"),
        "compensator.build.us_per_call": per_call("compensator.build"),
        "compensator.select_root.calls": count("compensator.select_root.calls"),
        "compensator.select_root.us_per_call": per_call("compensator.select_root"),
        "compensator.solve_static.calls": count("compensator.solve_static.calls"),
        "compensator.solve_static.us_per_call": per_call("compensator.solve_static"),
        "model.simulate_free_run.samples": count("model.simulate_free_run.samples"),
        "model.simulate_free_run.us_per_sample": per_item(
            total["model.simulate_free_run"], "model.simulate_free_run.samples",
            "us/sample"),
        "model.hysteresis_loop.calls": count("model.hysteresis_loop.calls"),
        "model.hysteresis_loop.ms_per_call": per_call(
            "model.hysteresis_loop", 1e3, "ms/call"),
        "model.hysteresis_loop.unsettled": count("model.hysteresis_loop.unsettled"),
        "model.fixed_points.calls": count("model.fixed_points.calls"),
        "model.fixed_points.us_per_call": per_call("model.fixed_points"),
        "model.jacobian_eigen.calls": count("model.jacobian_eigen.calls"),
        "model.jacobian_eigen.us_per_call": per_call("model.jacobian_eigen"),
    }
    for plant in ("BoucWenPlant", "HammersteinHeater"):
        name = "benchmarks.%s.simulate" % plant
        metrics[name + ".samples"] = count(name + ".samples")
        metrics[name + ".us_per_sample"] = per_item(
            total[name], name + ".samples", "us/sample")
    metrics.update({
        "benchmarks.HammersteinHeater.static_output.calls": count(
            "benchmarks.HammersteinHeater.static_output"),
        "evaluation.monte_carlo.runs": count("evaluation.monte_carlo.runs"),
        "evaluation.monte_carlo.skipped": count("evaluation.monte_carlo.skipped"),
        "evaluation.monte_carlo.ms_per_run": per_item(
            total["evaluation.monte_carlo"], "evaluation.monte_carlo.runs", "ms/run", 1e3),
        "evaluation.monte_carlo.self_ms": (
            per(self_time["evaluation.monte_carlo"], calls["evaluation.monte_carlo"], 1e3),
            "ms/call"),
        "evaluation.table_experiment.cells": count("evaluation.table_experiment.cells"),
        "evaluation.table_experiment.nan_cells": count(
            "evaluation.table_experiment.nan_cells"),
        "cli.main.calls": count("cli.main.calls"),
        "cli.main.self_ms": (per(self_time["cli.main"], calls["cli.main"], 1e3), "ms/call"),
        "cli.write_rows.ms": per_call("cli.write_rows", 1e3, "ms/call"),
        "cli.bytes_written": (counts.get("cli.bytes_written", 0), "B"),
        "trace.wall_s": (trace_wall_s, "s"),
    })
    return metrics
