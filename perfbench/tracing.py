"""Spans and counts around the public functions of grunwald's modules.

The tracer wraps each function at every module attribute that holds it,
so a call is timed at the name its caller uses: `diffusion.solve_factored`
and `steady.solve_factored` are separate call sites of the layer function
`operators.solve_factored`. Spans (site, start, end, parent) are kept in
memory and written out once the run ends.

A layer's self time is the duration of its spans minus the time of the
spans inside them. The benchmark opens one `round` span around each
traced round, so its self time is the time spent outside every traced
call, and the self times of all layers add up to the traced wall time.
A traced function that no longer exists is skipped and listed in
`skipped`; the run goes on without it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _assembled(tracer, fn, args, kwargs, result):
    tracer.counts["operators.assembled_mb"] += result.dense.nbytes / 1e6


def _weight_terms(tracer, fn, args, kwargs, result):
    tracer.counts["generators.weight_terms"] += len(result)


def _cn_steps(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    tracer.counts["diffusion.cn_steps"] += bound.get("m_steps", 0)
    if isinstance(result, np.ndarray):
        tracer.peaks["diffusion.trajectory_mb"] = max(
            tracer.peaks["diffusion.trajectory_mb"], result.nbytes / 1e6)


# (module, function, layer the metrics are named for, per-call counter)
TARGETS = (
    ("series", "normalized_symbol", "series.normalized_symbol", None),
    ("series", "pow_real", "series.pow_real", None),
    ("generators", "verify_order", "generators.verify_order", None),
    ("generators", "construct_beta", "generators.construct_beta", None),
    ("generators", "beta_table", "generators.beta_table", None),
    ("generators", "grunwald_weights", "generators.grunwald_weights",
     _weight_terms),
    ("operators", "assemble_frac_matrix", "operators.assemble_frac_matrix",
     _assembled),
    ("operators", "checked_lu", "operators.checked_lu", None),
    ("operators", "solve_factored", "operators.solve_factored", None),
    ("steady", "solve_steady", "steady.solve_steady", None),
    ("steady", "stability_scan", "steady.stability_scan", None),
    ("diffusion", "cn_solve", "diffusion.cn_solve", _cn_steps),
    ("diffusion", "stability_estimate_check",
     "diffusion.stability_estimate_check", None),
    ("harness", "reproduce_table", "harness.reproduce_table", None),
    ("harness", "run_convergence", "harness.run_convergence", None),
    ("harness", "write_report_csv", "harness.report_io", None),
    ("harness", "write_report_json", "harness.report_io", None),
    ("harness", "read_report_csv", "harness.report_io", None),
    ("harness", "run_property_suite", "harness.run_property_suite", None),
)

# The diffusion source is a closure made per problem, so it is wrapped
# on each problem the factory returns.
SOURCE_FACTORY = ("problems", "polynomial_diffusion_problem")
SOURCE_LAYER = "problems.source"
ROUND = "round"
PACKAGE = "grunwald"


class Tracer:
    def __init__(self):
        self.spans = []                      # [site, start, end, parent]
        self.site_layer = {ROUND: ROUND}
        self.counts = defaultdict(float)     # summed over calls
        self.peaks = defaultdict(float)      # largest single value
        self.skipped = []
        self._stack = []
        self._patches = []                   # (module, attribute, original)

    def _enter(self, site):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([site, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, site, layer, counter=None):
        self.site_layer[site] = layer

        def traced(*args, **kwargs):
            self._enter(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def round(self):
        """Install the wrappers and record one benchmark round."""
        self._install()
        self._enter(ROUND)
        try:
            yield
        finally:
            self._exit()
            self._uninstall()

    def _patch_everywhere(self, original, make_wrapper):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, make_wrapper(f"{short}.{attr}"))

    def _lookup(self, module_name, function):
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, function, None)
        if not callable(original):
            if f"{module_name}.{function}" not in self.skipped:
                self.skipped.append(f"{module_name}.{function}")
            return None
        return original

    def _install(self):
        for module_name, function, layer, counter in TARGETS:
            original = self._lookup(module_name, function)
            if original is not None:
                self._patch_everywhere(
                    original, lambda site, f=original, l=layer, c=counter:
                    self.wrap(f, site, l, c))
        factory = self._lookup(*SOURCE_FACTORY)
        if factory is not None:
            self._patch_everywhere(
                factory, lambda site: self._traced_factory(factory))

    def _traced_factory(self, factory):
        def traced_factory(*args, **kwargs):
            problem = factory(*args, **kwargs)
            if not callable(getattr(problem, "source", None)):
                if SOURCE_LAYER not in self.skipped:
                    self.skipped.append(SOURCE_LAYER)
                return problem
            return dataclasses.replace(problem, source=self.wrap(
                problem.source, SOURCE_LAYER, SOURCE_LAYER))

        return traced_factory

    def _uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def layer_totals(self):
        """Self time and call count per layer over all recorded spans."""
        self_time = [0.0] * len(self.spans)
        for index, (_, start, end, parent) in enumerate(self.spans):
            self_time[index] += end - start
            if parent >= 0:
                self_time[parent] -= end - start
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for (site, _, _, _), spent in zip(self.spans, self_time):
            layer = self.site_layer[site]
            seconds[layer] += spent
            calls[layer] += 1
        return seconds, calls

    def dump(self):
        return {
            "skipped": self.skipped,
            "sites": self.site_layer,
            "fields": ["site", "start", "end", "parent"],
            "spans": self.spans,
        }
