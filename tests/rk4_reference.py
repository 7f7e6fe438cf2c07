"""Classical RK4 on marker positions: a test-side reference integrator.

The package steps both flows with the small-scale decomposition (SSD) in
tangent-angle variables.  This module keeps an independent explicit scheme
for the tests to compare against: markers move along the stage normals with
the velocity of `flow.Evaluation`, the step is capped inside the RK4
real-axis stability region (fourth-order stiffness for surface diffusion,
third-order for Mullins-Sekerka), and every step is followed by
equal-arclength resampling and the flow's volume correction.  The cap makes
it usable only on short horizons and coarse markers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from torusflow.flow import ADVECTIVE_FRACTION, EnergyTrace, _evaluate, _record, enforce_volume
from torusflow.geometry import displace, resample_equal_arclength

RK4_REAL_AXIS_LIMIT = 2.785
# dt = c_cfl * STIFF_CONST * h^p keeps the highest resolved mode inside the
# RK4 real-axis stability region (symbol q^4 resp. 2 q^3 at q = pi/h)
STIFF_CONST = {
    "sd": RK4_REAL_AXIS_LIMIT / np.pi**4,
    "ms": RK4_REAL_AXIS_LIMIT / (2.0 * np.pi**3),
}
C_CFL = {"sd": 0.2, "ms": 0.5}  # fraction of the stability limit


def rk4_step(state, dt):
    """The curve one RK4 step on from the state's, before resampling."""
    c0 = state.curve
    k1 = state.evaluation.V[:, None] * c0.normals()
    c2 = displace(c0, 0.5 * dt * k1)
    k2 = _evaluate(state, c2).V[:, None] * c2.normals()
    c3 = displace(c0, 0.5 * dt * k2)
    k3 = _evaluate(state, c3).V[:, None] * c3.normals()
    c4 = displace(c0, dt * k3)
    k4 = _evaluate(state, c4).V[:, None] * c4.normals()
    return displace(c0, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def stable_dt(state):
    """C_CFL * STIFF_CONST * h^4 (sd) or h^3 (ms), further limited so max|V| dt
    stays below ADVECTIVE_FRACTION * h."""
    h = min(lp.length() / lp.n for lp in state.curve.components)
    power = 4 if state.flow_kind == "sd" else 3
    dt = C_CFL[state.flow_kind] * STIFF_CONST[state.flow_kind] * h**power
    vmax = float(np.abs(state.evaluation.V).max())
    if vmax > 0:
        dt = min(dt, ADVECTIVE_FRACTION * h / vmax)
    return float(dt)


def run(state, t_end):
    """RK4 steps of `stable_dt` to t_end, each resampled and volume corrected.

    Returns the final state and its trace (one record per state).
    """
    trace = EnergyTrace()
    _record(state, trace, None)
    while state.time < t_end * (1.0 - 1e-12):
        dt = min(stable_dt(state), t_end - state.time)
        newc = resample_equal_arclength(rk4_step(state, dt), state.curve.components[0].n)
        newc, delta = enforce_volume(newc, state.target_area)
        state = replace(state, time=state.time + dt, curve=newc,
                        cached={"volume_correction": delta})
        _record(state, trace, None)
    return state, trace
