"""The four benchmark workloads, built through the scenario config.

Each workload has a set-up (config, geometry, state, first evaluation), a
repeat and a check.  A repeat is one fixed trajectory of `flow.run` steps, or
one gamma of the stability scan (a verdict per lamella); it returns its
per-op wall times and its outputs.  The check gates those outputs and says
whether each op passed.  The runner repeats until the measured seconds are
used.

The seed moves only the perturbation phase and the circle centre, so marker
counts, dt and gamma (and hence the per-op cost) do not depend on it.  Seed 0
gives the geometries of the acceptance tests.
"""

from __future__ import annotations

import contextlib
import functools
import time
import traceback
import warnings

import numpy as np

from torusflow import config, diagnostics, flow, shapes, variation
from torusflow.geometry import MarkerLoop, PeriodicCurve, enclosed_area

# Gates at the acceptance tests' own tolerances.
J_MONOTONE_REL = 1e-9
AREA_DRIFT_MAX = 1e-6
IDENTITY1_MAX = 0.02


def placement(seed):
    """(phase in [0, 1), circle centre) for a seed; seed 0 is the acceptance geometry."""
    if seed == 0:
        return 0.0, (0.5, 0.5)
    rng = np.random.default_rng(seed)
    return float(rng.uniform()), tuple(float(c) for c in rng.uniform(0.3, 0.7, 2))


def moved(curve, shift=(0.0, 0.0), angle=0.0, center=(0.5, 0.5)):
    """Rigid motion of every loop: rotation about `center`, then a translation."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    ctr = np.asarray(center)
    return PeriodicCurve(
        [MarkerLoop((lp.lift - ctr) @ rot.T + ctr + shift, lp.winding) for lp in curve.components]
    )


def gamma_star(h=0.5):
    """Closed-form gamma where the single strip's meander mode softens (~94.9 at h=1/2)."""
    a = 2.0 * np.pi

    def g1(d):
        u = min(abs(d) % 1.0, 1.0 - abs(d) % 1.0)
        return np.cosh(a * (0.5 - u)) / (2.0 * a * np.sinh(0.5 * a))

    return a**2 / (4.0 * h * (1.0 - h) - 8.0 * (g1(0.0) - g1(h)))


class FlowWorkload:
    """SSD trajectories of `steps` steps, each restarted from the set-up state."""

    def __init__(self, name, overrides, steps, monitor, identity_gate, why):
        self.name = name
        self.overrides = overrides
        self.steps = steps
        self.monitor_on = monitor
        self.identity_gate = identity_gate
        self.why = why
        self.identity1 = []
        self.gates = {}  # gate name -> passed on every repeat so far
        self._stamps = []

    def setup(self, seed, span=contextlib.nullcontext):
        phase, center = placement(seed)
        with span("config.build"):
            cp = config.load_config(
                overrides=self.overrides + ["geometry.center=%r,%r" % center], env={}
            )
            curve, base = config.build_geometry(cp)
            mode = int(cp.get("geometry", "mode"))
            if cp.get("geometry", "type") == "perturbed_circle":
                # rotate the perturbation; the area-matched start has the reference's area
                turn = 2.0 * np.pi * phase / mode
                curve = moved(curve, angle=turn, center=center)
                base = moved(base, angle=turn, center=center)
                curve = shapes.with_area(curve, enclosed_area(base))
            else:
                curve = moved(curve, shift=(phase / mode, 0.0))
                base = moved(base, shift=(phase / mode, 0.0))
            state = config.build_flow_state(cp, curve)
            self.monitor = config.build_monitor(cp, curve, base) if self.monitor_on else None
        # first evaluation; flow.run reuses it for its initial record
        state.cached["eval"] = flow._evaluate(state)
        self.state = state
        self.dt = float(cp.get("flow", "dt"))

    def repeat(self):
        self._stamps = stamps = []
        start = time.perf_counter()
        try:
            res = flow.run(
                self.state, monitor=self.monitor, t_end=self.steps * self.dt,
                max_steps=self.steps + 1,
            )
        except Exception:
            traceback.print_exc()
            res = None
        end = time.perf_counter()
        return list(np.diff(stamps + [end])) if stamps else [end - start], res

    def check(self, res):
        """Correctness gates of one trajectory; one verdict per attempted step."""
        if res is None:
            self.gates["completed"] = False
            return [False] * self.steps
        J = res.trace.column("J")
        A = res.trace.column("area")
        gates = {
            "completed": res.event == "completed" and len(res.trace) == self.steps + 1,
            "J_nonincreasing": bool(np.all(np.diff(J) <= J_MONOTONE_REL * np.abs(J[:-1]))),
            "area_drift": float(np.abs(A - A[0]).max() / A[0]) <= AREA_DRIFT_MAX,
        }
        ident = diagnostics.verify_first_identity(res.trace)["median"]
        self.identity1.append(ident)
        if self.identity_gate:
            gates["identity1"] = ident <= IDENTITY1_MAX
        for key, ok in gates.items():
            self.gates[key] = self.gates.get(key, True) and ok
        return [all(gates.values())] * self.steps

    def stamp(self, fn):
        """flow.step replacement that records the entry time of every step."""

        def stamped(*args, **kwargs):
            self._stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return stamped


class StabilityWorkload:
    """One repeat = one gamma of the scan: a verdict (assembly + spectrum) for each k.

    Successive repeats cycle through the gammas; nothing is cached across gammas.
    """

    name = "stability_scan"
    why = ("the torusflow stability pattern on lamellae k=1..4 at gamma both sides of "
           "gamma*; bound by fields and the variation assembly")
    ks = (1, 2, 3, 4)
    gammas = (10.0, 50.0, 90.0, 100.0, 150.0)

    def setup(self, seed, span=contextlib.nullcontext):
        phase, _ = placement(seed)
        curves = {}
        for k in self.ks:
            with span("config.build"):
                cp = config.load_config(overrides=[
                    "geometry.type=lamella", f"geometry.k={k}", "geometry.h=0.5",
                    "geometry.n_markers=64",
                ], env={})
                curve, _ = config.build_geometry(cp)
            curve = moved(curve, shift=(0.0, phase))
            # first evaluation: the gamma=0 criticality of each lamella
            variation.criticality_residual(curve, 0.0)
            curves[k] = curve
        self.curves = curves
        self.n_modes = int(cp.get("stability", "n_modes"))
        self.grid_n = int(cp.get("grid", "n"))
        self.gstar = gamma_star(0.5)
        self.gates = {}  # gate name -> passed on every repeat so far
        self._next = 0

    def verdict(self, k, gamma):
        with warnings.catch_warnings():
            # the non-critical warning of the grid trace is expected on k >= 2
            warnings.simplefilter("ignore")
            mat = variation.assemble_second_variation(
                self.curves[k], gamma, n_modes=self.n_modes, grid_n=self.grid_n
            )
            return variation.spectrum(mat).classification

    def repeat(self):
        gamma = self.gammas[self._next % len(self.gammas)]
        self._next += 1
        times, verdicts = [], []
        for k in self.ks:
            t0 = time.perf_counter()
            try:
                cls = self.verdict(k, gamma)
            except Exception:
                traceback.print_exc()
                cls = None
            times.append(time.perf_counter() - t0)
            verdicts.append((k, gamma, cls))
        return times, verdicts

    def check(self, verdicts):
        """k=1 must be strictly stable below gamma* and unstable above it."""
        oks = []
        for k, gamma, cls in verdicts:
            expect = "strictly_stable" if gamma < self.gstar else "unstable"
            ok = cls is not None and (k != 1 or cls == expect)
            if k == 1:
                key = f"k1_gamma{gamma:g}_{expect}"
                self.gates[key] = self.gates.get(key, True) and ok
            oks.append(ok)
        return oks


# name -> constructor; each run builds a fresh workload object
WORKLOADS = {
    "sd_circle": functools.partial(
        FlowWorkload,
        "sd_circle",
        ["geometry.type=perturbed_circle", "geometry.r=0.2", "geometry.mode=2",
         "geometry.amplitude=5e-3", "geometry.n_markers=256", "flow.kind=sd",
         "flow.scheme=ssd", "flow.dt=2e-6", "monitor.eps0=0.5", "monitor.delta0=100",
         "monitor.reference=auto"],
        steps=100, monitor=True, identity_gate=True,
        why="acceptance-8 SD circle relaxation with the C1 monitor; bound by "
            "geometry (height function, validate), bie and fields idle",
    ),
    "ms_strip": functools.partial(
        FlowWorkload,
        "ms_strip",
        ["geometry.type=perturbed_strip", "geometry.h=0.5", "geometry.mode=1",
         "geometry.amplitude=1e-3", "geometry.n_markers=96", "flow.kind=ms",
         "flow.gamma=0", "flow.scheme=ssd", "flow.dt=1.1e-4"],
        steps=60, monitor=False, identity_gate=True,
        why="acceptance-2 MS strip at gamma=0, 2x96 markers; bound by the bie "
            "single-layer assembly, fields idle",
    ),
    "ms_nonlocal": functools.partial(
        FlowWorkload,
        "ms_nonlocal",
        ["geometry.type=perturbed_strip", "geometry.h=0.4", "geometry.mode=1",
         "geometry.amplitude=1e-3", "geometry.n_markers=96", "flow.kind=ms",
         "flow.gamma=10", "flow.scheme=ssd", "flow.dt=1.1e-4", "grid.n=256"],
        steps=4, monitor=False, identity_gate=False,
        why="MS strip at gamma=10, the only flow with the nonlocal term; bound by "
            "the fields grid potential",
    ),
    "stability_scan": StabilityWorkload,
}
