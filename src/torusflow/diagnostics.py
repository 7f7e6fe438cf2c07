"""The two energy identities, decay fits and Sobolev norms.

Along either flow the first identity says dJ/dt equals minus the dissipation
(int |Dw|^2 for the nonlocal flow, int |D_tau H|^2 for surface diffusion); the
second differentiates the dissipation itself and exposes the second-variation
form plus cubic remainders.  Both are checked here as runtime diagnostics
with centered differences across virtually advanced states.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .flow import Evaluation
from .geometry import apply_symbol, integrate_ds, resample_equal_arclength, spectral_factor
from .shapes import graph_over
from .variation import second_variation_direct

RELATIVE_FLOOR = 1e-14  # relative residuals divide by at least this share of the scale


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
        return asdict(self)


def _relative(lhs, rhs, floor):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)


def verify_first_identity(trace):
    """Centered -dJ/dt against the recorded dissipation, per interior record.

    Returns a dict with the residual series and its max/median; the trace rows
    gain their identity1_residual entries as a side effect.
    """
    if len(trace) < 3:
        raise ValueError("need at least 3 trace records")
    t = trace.column("t")
    J = trace.column("J")
    D = trace.column("dissipation")
    scale = RELATIVE_FLOOR * max(1.0, np.nanmax(np.abs(D)))
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


def _advance(curve, speed, dt):
    moved = graph_over(curve, speed * dt)
    return resample_equal_arclength(moved, curve.components[0].n)


def _second_identity(ev, rhs, terms, dt, fd_scale):
    """Both sides of a second identity at the evaluation `ev`.

    The left side d/dt (D/2) is a centered difference across the two curves
    advanced by -dt and +dt with the flow's velocity (pure normal motion,
    resampled);
    dt=None picks a fraction of the dynamical time D/|rhs| so the difference
    is neither stiff-limited nor drowned by quadrature noise.
    """
    D0 = ev.dissipation
    floor = RELATIVE_FLOOR * max(1.0, abs(D0))
    if dt is None:
        dt = fd_scale * max(D0, floor) / max(abs(rhs), floor / fd_scale)
    dp, dm = (
        Evaluation(_advance(ev.curve, ev.V, s * dt), ev.flow_kind, ev.gamma).dissipation
        for s in (1.0, -1.0)
    )
    lhs = 0.5 * (dp - dm) / (2.0 * dt)
    res, _ = ev.criticality
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        relative_residual=_relative(lhs, rhs, floor),
        terms={**terms, "dissipation": D0},
        criticality_sup=float(np.abs(res).max()),
        dt_used=dt,
        floor=floor,
    )


def verify_second_identity_ms(curve, gamma=0.0, dt=None, fd_scale=5e-3):
    """Check d/dt (1/2 int |Dw|^2) = -Q[[d_nu w]] + (1/2) int (d_nu w+ + d_nu w-)[d_nu w]^2."""
    ev = Evaluation(curve, "ms", gamma)
    sol, jump = ev.jump, ev.V
    q2 = second_variation_direct(ev, jump)
    cubic = 0.5 * integrate_ds(curve, (sol.one_sided_plus + sol.one_sided_minus) * jump**2)
    terms = {"second_variation": -q2, "cubic": cubic}
    return _second_identity(ev, -q2 + cubic, terms, dt, fd_scale)


def verify_second_identity_sd(curve, dt=None, fd_scale=5e-3):
    """Check d/dt (1/2 int |D_tau H|^2) against
    -Q[Lap_tau H] - int kappa |d_s H|^2 Lap_tau H + (1/2) int H |d_s H|^2 Lap_tau H
    with the 2D reduction B[D_tau H] = kappa |d_s H|^2."""
    ev = Evaluation(curve, "sd")
    V, kdk2 = ev.V, ev.kappa * ev.dkappa**2
    q2 = second_variation_direct(ev, V)
    bterm = -integrate_ds(curve, kdk2 * V)
    hterm = 0.5 * integrate_ds(curve, kdk2 * V)
    terms = {"second_variation": -q2, "second_fundamental": bterm, "curvature_cubic": hterm}
    return _second_identity(ev, -q2 + bterm + hterm, terms, dt, fd_scale)


def fit_exponential(t, values, window=None):
    """Least squares on log(values) vs t; returns (c0, r2) with c0 = -slope."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is not None:
        sel = (t >= window[0]) & (t <= window[1])
        t, y = t[sel], y[sel]
    if np.any(y <= 0):
        raise ValueError("values must be positive on the fit window")
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
    psi is sampled at the reference markers.  By Parseval the sum over all
    modes is the mean of psi (1+k^2)^s psi, the multiplier applied spectrally.
    """
    vals = reference.require_samples(psi)
    total = 0.0
    for lp, sl in zip(reference.components, reference.loop_slices()):
        L, v = lp.length(), vals[sl]
        k2 = -((2.0 * np.pi / L) ** 2) * spectral_factor(lp.n, 2).real
        total += L * float(np.mean(v * apply_symbol(v, (1.0 + k2) ** order)))
    return float(np.sqrt(total))
