"""Time integration of the two flows with volume control and stopping surveillance.

One integrator, the small-scale decomposition (SSD) of Hou, Lowengrub and
Shelley in tangent-angle/length variables: the constant-coefficient leading
symbol (-q^4 for surface diffusion, -2|q|^3 for Mullins-Sekerka) is applied
through its exact exponential propagator E over half a step, around an
explicit midpoint step for the lower-order remainder N: the stage is
m = E(u + dt/2 N(u)) and the step u+ = E'(E u + dt N(m)).  Stiffness imposes
no step cap, so runs reach the decay time scale 1/lambda; every step is
followed by a uniform-normal-offset volume correction
(`geometry.enforce_volume`), and the corrected curve is the one validated and
kept.  The tests keep an explicit Runge-Kutta scheme on marker positions as
an independent reference.

The step and the trace record read the flow law (V, the dissipation and the
energy) from one `Evaluation` per curve, the same object the identity checks in
`diagnostics` read.  N(u) reads the state's own evaluation, which the step size
and the record read too, so a step makes two flow-law evaluations: the stage
at m and the next state's.  The stopping monitor mirrors the proof-style
surveillance: C^1 closeness to a reference via the height function, and a
dissipation threshold; all stopping events are reported outcomes, not failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import bie
from .errors import GraphFailure, ResolutionError, TopologyError
from .geometry import (
    MarkerLoop,
    PeriodicCurve,
    apply_symbol,
    arclength_derivative,
    curvature,
    enclosed_area,
    enforce_volume,
    height_function,
    integrate_ds,
    perimeter,
    spectral_factor,
    surface_laplacian,
)

AREA_TOL = 1e-7  # a state's area may miss its target by this much
ADVECTIVE_FRACTION = 0.25  # max|V| dt <= ADVECTIVE_FRACTION * h

TRACE_COLUMNS = (
    "t",
    "J",
    "perimeter",
    "nonlocal",
    "area",
    "dissipation",
    "volume_correction",
    "psi_c1",
    "event",
)


@dataclass
class EnergyTrace:
    """Time series of energies and diagnostics along one run."""

    rows: list = field(default_factory=list)

    def append_row(self, kw):
        row = {k: kw.get(k, np.nan) for k in TRACE_COLUMNS}
        row["event"] = kw.get("event", "")
        if self.rows and row["t"] <= self.rows[-1]["t"]:
            raise ValueError("trace times must increase strictly")
        self.rows.append(row)

    def column(self, name):
        return np.array([r[name] for r in self.rows], dtype=float if name != "event" else object)

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path):
        lines = [",".join(TRACE_COLUMNS)]
        for r in self.rows:
            vals = [f"{r[c]:.17g}" for c in TRACE_COLUMNS[:-1]] + [str(r["event"])]
            lines.append(",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path):
        tr = cls()
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                parts = line.rstrip("\n").split(",")
                kw = {}
                for name, val in zip(header, parts):
                    kw[name] = val if name == "event" else float(val)
                tr.rows.append({**{c: np.nan for c in TRACE_COLUMNS}, **kw})
        return tr


@dataclass
class FlowParams:
    dt: float | None = None  # step cap; the smallest marker spacing when unset


@dataclass
class FlowState:
    time: float
    curve: PeriodicCurve
    flow_kind: str  # "ms" | "sd"
    gamma: float
    target_area: float
    params: FlowParams = field(default_factory=FlowParams)
    cached: dict = field(default_factory=dict)
    area: float = field(init=False)  # enclosed area of `curve`, checked against the target

    def __post_init__(self):
        if self.flow_kind not in ("ms", "sd"):
            raise ValueError("flow_kind must be 'ms' or 'sd'")
        if self.flow_kind == "sd":
            # surface diffusion is the gamma=0 gradient flow by definition
            self.gamma = 0.0
        self.area = enclosed_area(self.curve)
        if abs(self.area - self.target_area) > AREA_TOL:
            raise ValueError(
                f"area {self.area:.10f} violates target {self.target_area:.10f} "
                f"beyond tolerance {AREA_TOL:.1e}"
            )

    @property
    def evaluation(self):
        """The flow law at this state's curve, built on first use and kept in `cached`."""
        if "eval" not in self.cached:
            self.cached["eval"] = _evaluate(self)
        return self.cached["eval"]


def make_state(curve, flow_kind, gamma=0.0, params=None, time=0.0):
    return FlowState(
        time=time,
        curve=curve,
        flow_kind=flow_kind,
        gamma=gamma,
        target_area=enclosed_area(curve),
        params=params or FlowParams(),
    )


@dataclass
class StoppingMonitor:
    """Thresholds of the continuation argument: C^1 closeness and dissipation."""

    eps0: float = np.inf
    delta0: float = np.inf
    reference: PeriodicCurve | None = None

    def __post_init__(self):
        if self.eps0 <= 0 or self.delta0 <= 0:
            raise ValueError("monitor thresholds must be positive")


class Evaluation:
    """The flow law at one curve; each quantity is computed on first read and kept.

    MS: V = [d_nu w] for the harmonic w with w = H + 4 gamma v_E on the curve,
    D = int |Dw|^2 and J = perimeter + gamma int |Dv_E|^2.  SD: V = Lap_tau H,
    D = int |d_s H|^2 and J = perimeter.  No grid is involved: the trace of v_E
    comes from the single layer and one biharmonic-Green row per loop, and the
    nonlocal energy, read only at records, from the trace, d_nu v_E and the
    single layer by Green's identity (`bie`).  `variation` and `diagnostics`
    read the criticality residual, d_nu v_E and the single-layer kernel.
    """

    def __init__(self, curve, flow_kind, gamma=0.0):
        self.curve = curve
        self.flow_kind = flow_kind
        self.gamma = gamma

    @cached_property
    def kappa(self):
        return curvature(self.curve)

    @cached_property
    def dkappa(self):
        """Arclength derivative of the curvature, d_s H."""
        return arclength_derivative(self.curve, self.kappa)

    @cached_property
    def kernel(self):
        """The single-layer kernel matrix of the curve (`bie.assemble_single_layer`)."""
        return bie.assemble_single_layer(self.curve)

    @cached_property
    def potential_gradient(self):
        """Dv_E at the markers, (n, 2), through the evaluation's single layer."""
        return bie.potential_gradient(self.curve, self.kernel)

    @cached_property
    def potential_derivative(self):
        """d_nu v_E at the markers."""
        g, nu = self.potential_gradient, self.curve.normals()
        return g[:, 0] * nu[:, 0] + g[:, 1] * nu[:, 1]

    @cached_property
    def potential(self):
        """v_E at the markers (`bie.potential_trace`)."""
        return bie.potential_trace(self.curve, self.potential_gradient, self.kappa)

    @cached_property
    def datum(self):
        """H + 4 gamma v_E at the markers, the Dirichlet datum of the MS flow."""
        if self.gamma == 0.0:
            return self.kappa
        return self.kappa + 4.0 * self.gamma * self.potential

    @cached_property
    def criticality(self):
        """(datum - lambda, lambda) with lambda the datum's arclength mean; the
        curve is critical when the residual vanishes."""
        lam = integrate_ds(self.curve, self.datum) / self.perimeter
        return self.datum - lam, float(lam)

    @cached_property
    def solution(self):
        """(sigma, c, rcond) of the MS jump problem S[sigma] + c = datum (`bie.solve_jump`)."""
        return bie.solve_jump(self.curve, self.datum, self.kernel)

    @cached_property
    def V(self):
        if self.flow_kind == "sd":
            # V = Lap_tau H has zero mean per loop, so the flow is volume preserving
            return surface_laplacian(self.curve, self.kappa)
        return -self.solution[0]  # the jump [d_nu w] = -sigma

    @cached_property
    def dissipation(self):
        if self.flow_kind == "sd":
            return integrate_ds(self.curve, self.dkappa**2)
        # int |Dw|^2 = -int_boundary w [d_nu w] ds
        return -integrate_ds(self.curve, self.datum * self.V)

    @cached_property
    def nonlocal_energy(self):
        """gamma int |Dv_E|^2."""
        if self.flow_kind == "sd" or self.gamma == 0.0:
            return 0.0
        return self.gamma * bie.potential_energy(
            self.curve, self.kernel, self.potential, self.potential_derivative)

    @cached_property
    def perimeter(self):
        return perimeter(self.curve)


def _evaluate(state, curve=None):
    """The flow law of the state at `curve` (defaults to the state's curve)."""
    return Evaluation(state.curve if curve is None else curve, state.flow_kind, state.gamma)


def adaptive_dt(state):
    """The step: params.dt (the smallest marker spacing h when unset), further
    limited so max|V| dt stays below ADVECTIVE_FRACTION * h."""
    h = min(lp.length() / lp.n for lp in state.curve.components)
    dt = state.params.dt if state.params.dt is not None else h
    vmax = float(np.abs(state.evaluation.V).max())
    if vmax > 0:
        dt = min(dt, ADVECTIVE_FRACTION * h / vmax)
    return float(dt)


# -- SSD (tangent angle / length form) --------------------------------------------


def _extract_theta(curve):
    """Tangent-angle data per group of loops of equal n ("idx", their positions),
    as columns: periodic deviation, turning number, length, mean, winding."""
    out = []
    for n in dict.fromkeys(lp.n for lp in curve.components):
        idx = [i for i, lp in enumerate(curve.components) if lp.n == n]
        loops = [curve.components[i] for i in idx]
        tau = np.stack([lp.tangent() for lp in loops], axis=1)
        theta = np.unwrap(np.arctan2(tau[..., 1], tau[..., 0]), axis=0)
        turn = np.array([0 if np.any(lp.winding != 0) else lp.orientation for lp in loops])
        alpha = (2.0 * np.pi * np.arange(n) / n)[:, None]
        out.append(
            {
                "idx": idx,
                "alpha": alpha,
                "dev": theta - turn * alpha,
                "turn": turn,
                "L": np.array([lp.length() for lp in loops]),
                "mean": np.array([lp.lift.mean(axis=0) for lp in loops]),
                "winding": np.array([lp.winding for lp in loops], dtype=float),
            }
        )
    return out


def _reconstruct(loopdata):
    loops = {}
    for g in loopdata:
        alpha = g["alpha"][..., None]
        theta = g["dev"] + g["turn"] * g["alpha"]
        tau = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        mean_tau = tau.mean(axis=0)
        anti = apply_symbol(tau, spectral_factor(len(alpha), -1))
        x = (g["L"][:, None] / (2.0 * np.pi)) * (anti + alpha * mean_tau)
        # distribute the closure defect linearly so x(2pi) - x(0) = winding exactly
        defect = g["L"][:, None] * mean_tau - g["winding"]
        x -= (alpha / (2.0 * np.pi)) * defect
        x += g["mean"] - x.mean(axis=0)
        for col, i in enumerate(g["idx"]):
            loops[i] = MarkerLoop(x[:, col], g["winding"][col].astype(int))
    return PeriodicCurve([loops[i] for i in sorted(loops)], check=False)


def _ssd_symbol(flow_kind, L, n):
    # q^2 = -(2pi/L)^2 (ik)^2 is the symbol of -d^2/ds^2 on a loop of length L, one
    # row per entry of the array L
    q2 = -((2.0 * np.pi / L[:, None]) ** 2) * spectral_factor(n, 2).real
    return -(q2**2) if flow_kind == "sd" else -2.0 * q2**1.5


def _ssd_linear_halfstep(loopdata, flow_kind, dt):
    for g in loopdata:
        lam = _ssd_symbol(flow_kind, g["L"], len(g["alpha"]))
        g["dev"] = apply_symbol(g["dev"], np.exp(lam * 0.5 * dt))


def _ssd_rhs(loopdata, ev):
    """Remainder dynamics of (theta_dev, L, mean) after subtracting the symbol,
    with V read from `ev`, the flow law at the curve of `loopdata`."""
    V = ev.V
    starts = np.array([sl.start for sl in ev.curve.loop_slices()])
    out = []
    for g in loopdata:
        alpha, dev, turn = g["alpha"], g["dev"], g["turn"]
        n = len(alpha)
        v = V[np.arange(n)[:, None] + starts[g["idx"]]]
        s_alpha = g["L"] / (2.0 * np.pi)
        theta = dev + turn * alpha
        theta_a = apply_symbol(dev, spectral_factor(n, 1)) + turn
        integrand = theta_a * v
        mean_i = integrand.mean(axis=0)
        # dT/dalpha = -(theta_a v - mean)
        T = -apply_symbol(integrand, spectral_factor(n, -1))
        va = apply_symbol(v, spectral_factor(n, 1))
        theta_t = (-va + T * theta_a) / s_alpha
        linear = apply_symbol(dev, _ssd_symbol(ev.flow_kind, g["L"], n))
        tau = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        nu = np.stack([tau[..., 1], -tau[..., 0]], axis=-1)
        mean_dot = (v[..., None] * nu).mean(axis=0) + (T[..., None] * tau).mean(axis=0)
        out.append(
            {
                "dev_dot": theta_t - linear,
                "L_dot": 2.0 * np.pi * mean_i,
                "mean_dot": mean_dot,
            }
        )
    return out


def _ssd_apply(loopdata, rhs, dt):
    return [
        {
            **g,
            "dev": g["dev"] + dt * r["dev_dot"],
            "L": g["L"] + dt * r["L_dot"],
            "mean": g["mean"] + dt * r["mean_dot"],
        }
        for g, r in zip(loopdata, rhs)
    ]


def _ssd_step(state, dt):
    """The SSD step on (theta_dev, L, mean): m = E(u + dt/2 N(u)) and
    u+ = E'(E u + dt N(m)), with E the propagator of the symbol over dt/2 at
    the lengths of the data it acts on (E' at the new ones).

    N(u) reads V from the state's own evaluation, which `adaptive_dt` and the
    record read too, so the step evaluates the flow law once, at m."""
    loopdata = _extract_theta(state.curve)
    mid = _ssd_apply(loopdata, _ssd_rhs(loopdata, state.evaluation), 0.5 * dt)
    _ssd_linear_halfstep(mid, state.flow_kind, dt)
    rhs_m = _ssd_rhs(mid, _evaluate(state, _reconstruct(mid)))
    _ssd_linear_halfstep(loopdata, state.flow_kind, dt)
    loopdata = _ssd_apply(loopdata, rhs_m, dt)
    _ssd_linear_halfstep(loopdata, state.flow_kind, dt)
    return _reconstruct(loopdata)


def step(state, dt):
    """Advance one SSD step (its tangential velocity keeps the markers
    equidistributed), restore the volume and check the corrected curve, the
    one the new state keeps."""
    newc, delta = enforce_volume(_ssd_step(state, dt), state.target_area)
    newc.validate()
    return replace(state, time=state.time + dt, curve=newc, cached={"volume_correction": delta})


@dataclass
class RunResult:
    trace: EnergyTrace
    event: str
    state: FlowState
    snapshots: list
    reason: str = ""  # "Class: message" of the exception behind the event, else ""


def _psi_c1(curve, reference):
    """sup|psi| + sup|psi'| with the derivative taken both spectrally and by
    finite differences (the conservative max of the two estimates)."""
    psi = height_function(curve, reference)
    dpsi_spec = arclength_derivative(reference, psi)
    fd = [
        np.gradient(part, lp.length() / lp.n)
        for part, lp in zip(reference.split(psi), reference.components)
    ]
    dmax = max(float(np.abs(dpsi_spec).max()), float(np.abs(np.concatenate(fd)).max()))
    return float(np.abs(psi).max()) + dmax, psi


def _record(state, trace, monitor, event=""):
    """Append the state's trace row; returns its C^1 distance (NaN without a reference)."""
    ev = state.evaluation
    row = {
        "t": state.time,
        "J": ev.perimeter + ev.nonlocal_energy,
        "perimeter": ev.perimeter,
        "nonlocal": ev.nonlocal_energy,
        "area": state.area,
        "dissipation": ev.dissipation,
        "volume_correction": state.cached.get("volume_correction", 0.0),
        "event": event,
    }
    psi_c1 = np.nan
    if monitor is not None and monitor.reference is not None:
        psi_c1, _ = _psi_c1(state.curve, monitor.reference)
    trace.append_row({**row, "psi_c1": psi_c1})
    return psi_c1


def run(initial, monitor=None, t_end=1e-3, snapshot_every=0, max_steps=10**7):
    """Integrate until t_end or a stopping event; one trace record per step.

    Stopping reasons: 'graph_failure' (curve degenerated or left the graph
    neighborhood), 'c1_exceeded' (C^1 distance >= eps0),
    'dissipation_exceeded' (dissipation >= 2*delta0), 'dt_underflow'; a clean
    finish reports 'completed'.  A 'graph_failure' keeps the class and message
    of its exception as the result's `reason`.
    """
    state = initial
    trace = EnergyTrace()
    snapshots = []
    try:
        psi_c1 = _record(state, trace, monitor)
    except GraphFailure as exc:
        # the initial state already fails the graph surveillance
        _record(state, trace, None, event="graph_failure")
        return RunResult(trace, "graph_failure", state, snapshots, f"GraphFailure: {exc}")
    event = reason = ""
    steps = 0
    while state.time < t_end * (1.0 - 1e-12) and steps < max_steps:
        dt = min(adaptive_dt(state), t_end - state.time)
        if dt < 1e-16 * max(t_end, 1.0):
            event = "dt_underflow"
            break
        try:
            state = step(state, dt)
            steps += 1
            psi_c1 = _record(state, trace, monitor)
        except (GraphFailure, TopologyError, ResolutionError) as exc:
            event, reason = "graph_failure", f"{type(exc).__name__}: {exc}"
            break
        if snapshot_every and steps % snapshot_every == 0:
            snapshots.append((state.time, state.curve))
        if monitor is not None:
            if np.isfinite(psi_c1) and psi_c1 >= monitor.eps0:
                event = "c1_exceeded"
                break
            if state.evaluation.dissipation >= 2.0 * monitor.delta0:
                event = "dissipation_exceeded"
                break
    if not event:
        event = "completed" if state.time >= t_end * (1.0 - 1e-12) else "max_steps"
    trace.rows[-1]["event"] = event
    return RunResult(trace, event, state, snapshots, reason)
