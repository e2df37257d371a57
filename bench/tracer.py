"""Spans around the calls the CLI makes into each ``ptomech`` layer.

The tracer replaces module attributes with timing wrappers while it is
installed. ``cli`` looks these functions up through their modules at call time
(``numeric.integrate_first_moments(...)``, ``build_parser()`` as a module
global), so no package source changes. Spans stay in memory: name, start,
end, index of the parent span and the invocation id the caller set. Wrappers
also record work counts where the layer does the work, so ratios such as
ns per RK4 step are measured at the same boundary as the time.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from contextlib import contextmanager

import numpy as np

from ptomech import analytic, cli, numeric, spectrum


def rk4_steps(params, t_end, dt=None, n_samples=None, truncated_after=None) -> int:
    """RK4 steps an ``integrate_*`` call takes, computed from the documented grid rule.

    The step is ``dt`` or ``numeric.default_dt(params)``; the run needs
    n = ceil(t_end/dt) steps. When fewer than n + 1 samples are stored, each
    of the n_samples - 1 sample intervals takes chunk = ceil(n/(n_samples - 1))
    steps. A truncated series stops after ``truncated_after`` intervals.
    """
    k = params.kappa
    dt = numeric.default_dt(params) if dt is None else dt
    n_steps = max(1, math.ceil(t_end * k / (dt * k)))
    if n_samples is None or n_samples >= n_steps + 1:
        chunk, intervals = 1, n_steps
    else:
        intervals = max(1, n_samples - 1)
        chunk = math.ceil(n_steps / intervals)
    if truncated_after is not None:
        intervals = truncated_after
    return chunk * intervals


def _count_integration(args, series) -> dict:
    truncated_after = len(series.t) - 1 if series.truncated else None
    steps = rk4_steps(args["params"], args["t_end"], args.get("dt"),
                      args.get("n_samples"), truncated_after)
    return {"rk4_steps": steps, "truncated_series": int(series.truncated)}


def _count_points(args, result) -> dict:
    return {"points": int(np.size(args["t"]))}


# (module, attribute, span name, work counter)
TARGETS = (
    (numeric, "integrate_first_moments", "numeric.first_moments", _count_integration),
    (numeric, "integrate_second_moments", "numeric.second_moments", _count_integration),
    (numeric, "stimulated_spontaneous_split", "numeric.split", None),
    (analytic, "displacement", "analytic.displacement", _count_points),
    (analytic, "numbers_equal_gain", "analytic.numbers", _count_points),
    (analytic, "numbers_unequal_gain", "analytic.numbers", _count_points),
    (analytic, "steady_numbers", "analytic.steady", lambda args, result: {"points": 1}),
    (spectrum, "phase_diagram", "spectrum.phase_diagram",
     lambda args, grid: {"cells": int(grid.max_re_lambda.size)}),
    (cli, "build_parser", "cli.build_parser", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Collects spans while installed; the caller sets ``invocation`` before each call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.invocation: str | None = None
        self._open: list[int] = []

    def _wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "invocation": self.invocation,
                    "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span["counts"] = counter(bound, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        originals = []
        try:
            for module, attr, name, counter in TARGETS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def totals_by_group(spans: list[dict], group) -> dict:
    """Self seconds per span name (``<name>.s``) and summed work counts, per ``group(span)``."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        bucket = totals.setdefault(group(span), {})
        key = span["name"] + ".s"
        bucket[key] = bucket.get(key, 0.0) + own
        for count, value in span.get("counts", {}).items():
            bucket[count] = bucket.get(count, 0) + value
    return totals
