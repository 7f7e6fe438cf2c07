"""Energy accounting, the two energy identities, distances, and decay fits.

Along either flow the first identity says dJ/dt equals minus the dissipation
(int |Dw|^2 for the nonlocal flow, int |D_tau H|^2 for surface diffusion); the
second differentiates the dissipation itself and exposes the second-variation
form plus cubic remainders.  Both are checked here as runtime diagnostics
with centered differences across virtually advanced states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bie
from .fields import _crossing_fill, dirichlet_energy, potential_of_set
from .geometry import (
    CurveSamples,
    arclength_derivative,
    curvature,
    integrate_ds,
    perimeter,
    resample_equal_arclength,
    signed_distance_grid,
    surface_laplacian,
)
from .shapes import graph_over
from .variation import criticality_residual, second_variation_direct

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
    fitted: dict | None = None

    def append_row(self, kw):
        row = {k: kw.get(k, np.nan) for k in TRACE_COLUMNS}
        row["event"] = kw.get("event", "")
        row["identity1_residual"] = kw.get("identity1_residual", np.nan)
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
                tr.rows.append({**{c: np.nan for c in TRACE_COLUMNS}, **kw,
                                "identity1_residual": np.nan})
        return tr


@dataclass
class IdentityReport:
    """One evaluation of an energy identity: both sides plus the term breakdown."""

    lhs: float
    rhs: float
    residual: float
    relative_residual: float
    terms: dict
    criticality_sup: float
    dt_used: float
    floor: float

    def to_dict(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "relative_residual": self.relative_residual,
            "terms": self.terms,
            "criticality_sup": self.criticality_sup,
            "dt_used": self.dt_used,
            "floor": self.floor,
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def _relative(lhs, rhs, floor):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)


def energy(curve, gamma, grid_n=256):
    """(J, perimeter, nonlocal contribution gamma*int|Dv_E|^2)."""
    per = perimeter(curve)
    if gamma == 0.0:
        return per, per, 0.0
    v, _ = potential_of_set(curve, n=grid_n)
    nl = gamma * dirichlet_energy(v)
    return per + nl, per, nl


def verify_first_identity(trace, floor=1e-14):
    """Centered -dJ/dt against the recorded dissipation, per interior record.

    Returns a dict with the residual series and its max/median; the trace rows
    gain their identity1_residual entries as a side effect.
    """
    if len(trace) < 3:
        raise ValueError("need at least 3 trace records")
    t = trace.column("t")
    J = trace.column("J")
    D = trace.column("dissipation")
    scale = floor * max(1.0, np.nanmax(np.abs(D)))
    res = []
    for i in range(1, len(t) - 1):
        lhs = -(J[i + 1] - J[i - 1]) / (t[i + 1] - t[i - 1])
        rel = _relative(lhs, D[i], scale)
        trace.rows[i]["identity1_residual"] = rel
        res.append(rel)
    res = np.array(res)
    return {
        "residuals": res,
        "max": float(res.max()),
        "median": float(np.median(res)),
    }


def _ms_dissipation_of(curve, gamma, grid_n):
    _, sol = bie.ms_normal_velocity(curve, gamma, grid_n=grid_n)
    return sol.dissipation()


def _sd_dissipation_of(curve):
    kap = curvature(curve)
    dk = arclength_derivative(curve, kap)
    return integrate_ds(curve, dk.values**2)


def _advance(curve, speed, dt):
    moved = graph_over(curve, CurveSamples(np.asarray(speed) * dt))
    return resample_equal_arclength(moved, curve.components[0].n)


def verify_second_identity_ms(curve, gamma=0.0, dt=None, grid_n=256, fd_scale=5e-3):
    """Check d/dt (1/2 int |Dw|^2) = -Q[[d_nu w]] + (1/2) int (d_nu w+ + d_nu w-)[d_nu w]^2.

    The left side is a centered difference across two virtually advanced
    states (pure normal motion, resampled); dt=None picks a fraction of the
    dynamical time D/|RHS| so the difference is neither stiff-limited nor
    drowned by quadrature noise.
    """
    op = bie.assemble_single_layer(curve)
    g, _ = bie.ms_boundary_data(curve, gamma, grid_n=grid_n)
    sol = bie.solve_jump(curve, g, operator=op)
    D0 = sol.dissipation()
    jump = sol.jump.values
    q2 = second_variation_direct(curve, gamma, CurveSamples(jump), operator=op)
    cubic = 0.5 * integrate_ds(
        curve, (sol.one_sided_plus.values + sol.one_sided_minus.values) * jump**2
    )
    rhs = -q2 + cubic
    floor = 1e-14 * max(1.0, abs(D0))
    if dt is None:
        dt = fd_scale * max(D0, floor) / max(abs(rhs), floor / fd_scale)
    dp = _ms_dissipation_of(_advance(curve, jump, +dt), gamma, grid_n)
    dm = _ms_dissipation_of(_advance(curve, jump, -dt), gamma, grid_n)
    lhs = 0.5 * (dp - dm) / (2.0 * dt)
    res, _ = criticality_residual(curve, gamma, grid_n=grid_n)
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        relative_residual=_relative(lhs, rhs, floor),
        terms={"second_variation": -q2, "cubic": cubic, "dissipation": D0},
        criticality_sup=float(np.abs(res.values).max()),
        dt_used=dt,
        floor=floor,
    )


def verify_second_identity_sd(curve, dt=None, fd_scale=5e-3):
    """Check d/dt (1/2 int |D_tau H|^2) against
    -Q[Lap_tau H] - int kappa |d_s H|^2 Lap_tau H + (1/2) int H |d_s H|^2 Lap_tau H
    with the 2D reduction B[D_tau H] = kappa |d_s H|^2."""
    kap = curvature(curve)
    dk = arclength_derivative(curve, kap).values
    V = surface_laplacian(curve, kap).values
    D0 = integrate_ds(curve, dk**2)
    q2 = second_variation_direct(curve, 0.0, CurveSamples(V))
    bterm = -integrate_ds(curve, kap.values * dk**2 * V)
    hterm = 0.5 * integrate_ds(curve, kap.values * dk**2 * V)
    rhs = -q2 + bterm + hterm
    floor = 1e-14 * max(1.0, abs(D0))
    if dt is None:
        dt = fd_scale * max(D0, floor) / max(abs(rhs), floor / fd_scale)
    dp = _sd_dissipation_of(_advance(curve, V, +dt))
    dm = _sd_dissipation_of(_advance(curve, V, -dt))
    lhs = 0.5 * (dp - dm) / (2.0 * dt)
    res, _ = criticality_residual(curve, 0.0)
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        relative_residual=_relative(lhs, rhs, floor),
        terms={
            "second_variation": -q2,
            "second_fundamental": bterm,
            "curvature_cubic": hterm,
            "dissipation": D0,
        },
        criticality_sup=float(np.abs(res.values).max()),
        dt_used=dt,
        floor=floor,
    )


def asymmetry_distance(curve, reference, grid_n=256, d_ref=None):
    """(D, |E Delta F|): distance-weighted and plain symmetric-difference areas.

    D integrates |d_F| over the symmetric difference on the grid; d_ref may
    carry a precomputed signed-distance field of the reference.
    """
    if d_ref is None:
        d_ref = signed_distance_grid(reference, grid_n)
    chi_e = _crossing_fill(curve, grid_n) > 0
    chi_f = _crossing_fill(reference, grid_n) > 0
    mask = chi_e != chi_f
    D = float(np.mean(np.abs(d_ref.values) * mask))
    return D, float(np.mean(mask))


def fit_exponential(trace_or_t, column=None, window=None):
    """Least squares on log(column) vs t; returns (c0, r2) with c0 = -slope.

    Accepts an EnergyTrace plus a column name, or two arrays (t, values).
    """
    if column is None:
        raise ValueError("column required")
    if isinstance(column, str):
        t = trace_or_t.column("t")
        y = trace_or_t.column(column)
    else:
        t = np.asarray(trace_or_t, dtype=float)
        y = np.asarray(column, dtype=float)
    if window is not None:
        sel = (t >= window[0]) & (t <= window[1])
        t, y = t[sel], y[sel]
    if np.any(y <= 0):
        raise ValueError("column must be positive on the fit window")
    if t.size < 2:
        raise ValueError("need at least two samples to fit")
    ly = np.log(y)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitv = A @ coef
    ss_res = float(np.sum((ly - fitv) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-coef[0]), r2


def discrete_sobolev_norm(psi, reference, order):
    """Fourier norm (sum over loops of L * sum (1+k^2)^s |c_m|^2)^(1/2).

    k = 2 pi m / L is the physical wavenumber of mode m on a loop of length L;
    psi is sampled at the reference markers.
    """
    vals = np.asarray(reference.require_samples(psi), dtype=float)
    total = 0.0
    for lp, sl in zip(reference.components, reference.loop_slices()):
        L = lp.length()
        c = np.fft.fft(vals[sl]) / lp.n
        m = np.fft.fftfreq(lp.n, d=1.0 / lp.n)
        k = 2.0 * np.pi * m / L
        total += L * float(np.sum((1.0 + k**2) ** order * np.abs(c) ** 2))
    return float(np.sqrt(total))
