"""In-memory spans around the torusflow layer functions, installed from outside.

A span wrapper replaces a layer function at every place a caller looks it up:
each torusflow module attribute that holds the original function (so
`potential_of_set` is rebound in fields, flow, bie, variation and
diagnostics), or one class attribute for methods.  Removing the wrappers
restores the originals, so traced and untraced repeats can alternate in one
process.

Self time of a span is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

from torusflow import bie, diagnostics, fields, flow, geometry, variation


def _n_markers(args, kwargs):
    return args[0].n_markers


def _lu_order(args, kwargs):
    return args[0].shape[0]


# (span name, owner, attribute, rebind in every torusflow module, size of a call)
# A size is recorded per call for the computed work counts.
TARGETS = [
    ("geometry.height_function", geometry, "height_function", True, None),
    ("geometry.validate", geometry.PeriodicCurve, "validate", False, None),
    ("geometry.enclosed_area", geometry, "enclosed_area", True, None),
    ("bie.assemble_single_layer", bie, "assemble_single_layer", True, _n_markers),
    ("bie.green_raw", bie, "_green_raw", True, None),
    ("bie.solve_jump", bie, "solve_jump", True, None),
    ("bie.lu_factor", bie, "lu_factor", False, _lu_order),
    ("fields.potential_of_set", fields, "potential_of_set", True, None),
    ("fields.rasterize_indicator", fields, "rasterize_indicator", True, None),
    ("fields.solve_poisson_zero_mean", fields, "solve_poisson_zero_mean", True, None),
    ("fields.interpolate_grid", fields, "interpolate_grid", True, None),
    ("fields.dirichlet_energy", fields, "dirichlet_energy", True, None),
    ("flow.step", flow, "step", False, None),
    ("flow.record", flow, "_record", False, None),
    ("flow.evaluate", flow, "_evaluate", False, None),
    ("flow.surface_laplacian", flow, "surface_laplacian", False, None),
    ("variation.assemble_second_variation", variation, "assemble_second_variation", True, None),
    ("variation.criticality_residual", variation, "criticality_residual", True, None),
    ("variation.spectrum", variation, "spectrum", True, None),
    ("diagnostics.verify_first_identity", diagnostics, "verify_first_identity", True, None),
]

# Spans the benchmark opens itself, around a group of calls into one layer.
OWN_SPANS = ["config.build"]

# Spans reported as per-layer metrics (flow.surface_laplacian only feeds a count).
REPORTED = [name for name, *_ in TARGETS if name != "flow.surface_laplacian"] + OWN_SPANS


def _torusflow_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "torusflow"]


def rebind(owner, attr, replacement, everywhere):
    """Point every lookup of owner.attr at `replacement`; return the undo list."""
    original = getattr(owner, attr)
    homes = _torusflow_modules() if everywhere else [owner]
    undo = []
    for home in homes:
        for name, value in list(vars(home).items()):
            if value is original and (everywhere or name == attr):
                setattr(home, name, replacement)
                undo.append((home, name, original))
    return undo


def restore(undo):
    for home, name, original in reversed(undo):
        setattr(home, name, original)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, size]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name, size):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, size])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, size(args, kwargs) if size else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        for name, owner, attr, everywhere, size in TARGETS:
            wrapper = self._wrap(name, getattr(owner, attr), size)
            self._undo += rebind(owner, attr, wrapper, everywhere)

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def top_level_seconds(self, start=0, stop=None):
        """Summed duration of the root spans among spans[start:stop]."""
        return sum(s[2] - s[1] for s in self.spans[start:stop] if s[3] == -1)

    def summary(self, start=0, stop=None):
        """Per span name: calls, total seconds, self seconds and summed sizes."""
        spans = self.spans[start:stop]
        child = np.zeros(len(spans))
        for s in spans:
            if s[3] >= start:
                child[s[3] - start] += s[2] - s[1]
        out = {}
        for s, c in zip(spans, child):
            agg = out.setdefault(s[0], {"calls": 0, "total": 0.0, "self": 0.0, "sizes": []})
            agg["calls"] += 1
            agg["total"] += s[2] - s[1]
            agg["self"] += s[2] - s[1] - c
            if s[4] is not None:
                agg["sizes"].append(s[4])
        return out

    def dump(self, path):
        """Write the spans, with times relative to the first one."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, a - t0, b - t0, p, z] for n, a, b, p, z in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "size"], "spans": rows}, fh)
