"""The torus biharmonic Green function G2 and the nonlocal energy as its double integral.

G2 solves -Lap G2 = G with zero mean, G the periodic Green function of -Lap,
i.e. it is the Fourier series sum_(k != 0) e^(2 pi i k.x) / (16 pi^4 |k|^4).
Its closed form is the mode-0 term -B4(u)/24, the cylinder sum
Re[Li3(q) + 2 pi u Li2(q)]/(16 pi^3) with u = |dy| and q = e^(2 pi i (dx + i u)),
and the periodic images, each summed here term by term.

`pair_energy` is int |Dv_E|^2 = 4 int int nu.nu' G2(x - x') ds ds', a route
to the nonlocal energy that shares no step with `bie.potential_energy`
(Green's identity on the single layer and the v_E trace).
"""

import numpy as np
from scipy.special import zeta

ZETA2 = np.pi**2 / 6.0
ZETA3 = float(zeta(3.0))
# zeta-corrected trapezoid rule (Wu & Martinsson, Adv. Comput. Math. 47, 2021):
# the r^2 log r / 8pi singularity of G2 gains 2 zeta'(-2) w^3 / 8pi per node,
# zeta'(-2) = -zeta(3)/(4 pi^2)
ZETA_R2LOG = 2.0 * (-ZETA3 / (4.0 * np.pi**2)) / (8.0 * np.pi)
IMAGES = 12
POLYLOG_TERMS = 48

_J = np.arange(POLYLOG_TERMS)
# Li2(e^mu) = zeta(2) + mu (1 - log(-mu)) - mu^2/4 + mu^3 sum_j a_j mu^2j and
# Li3(e^mu) = zeta(3) + zeta(2) mu + mu^2 (3/2 - log(-mu))/2 - mu^3/12
#             + mu^4 sum_j b_j mu^2j,   |mu| < 2 pi,
# a_j = zeta(-1-2j)/(2j+3)!, b_j = a_j/(2j+4), zeta(-1-2j) from the functional equation
_LI_A = (2.0 * (-1.0) ** (_J + 1) * zeta(2.0 * _J + 2.0)
         / ((2.0 * np.pi) ** (2 * _J + 2) * (2 * _J + 2) * (2 * _J + 3)))
_LI_B = _LI_A / (2 * _J + 4)
# image m = 1..IMAGES, a = 2 pi m, r = e^(-a): cos(2 pi m x) (A_m (p + q) + B_m u (p - q)),
# p = e^(-a (1+u)), q = e^(-a (1-u))
_A = 2.0 * np.pi * np.arange(1, IMAGES + 1)
_R = np.exp(-_A)
_IMAGE_A = (1.0 + _A / (1.0 - _R)) / (2.0 * _A**3 * (1.0 - _R))
_IMAGE_B = 1.0 / (2.0 * _A**2 * (1.0 - _R))


def _polylogs(mu):
    """(Li2(e^mu), Li3(e^mu)) by the log-series, all POLYLOG_TERMS terms, 0 < |mu| < 2 pi."""
    z = mu * mu
    p2 = np.full_like(mu, _LI_A[-1])
    p3 = np.full_like(mu, _LI_B[-1])
    for j in range(POLYLOG_TERMS - 2, -1, -1):
        p2 = p2 * z + _LI_A[j]
        p3 = p3 * z + _LI_B[j]
    log_m = np.log(-mu)
    li2 = ZETA2 + mu * (1.0 - log_m) - 0.25 * z + z * mu * p2
    li3 = ZETA3 + ZETA2 * mu + 0.5 * z * (1.5 - log_m) - z * mu / 12.0 + z * z * p3
    return li2, li3


def green2(x, y=None):
    """G2(x - y), or G2(x) when y is omitted; the points must be distinct on the torus."""
    d = np.asarray(x, dtype=float) if y is None else np.asarray(x, float) - np.asarray(y, float)
    dx, dy = d[..., 0] - np.round(d[..., 0]), d[..., 1] - np.round(d[..., 1])
    if np.any(np.hypot(dx, dy) < 1e-14):
        raise ValueError("G2 evaluated at coincident points")
    u = np.abs(dy)
    li2, li3 = _polylogs((2.0 * np.pi) * (1j * dx - u))
    out = (1.0 / 30.0 - (u * (1.0 - u)) ** 2) / 24.0
    out = out + (li3.real + (2.0 * np.pi) * u * li2.real) / (16.0 * np.pi**3)
    for m in range(IMAGES):
        p, q = np.exp(-_A[m] * (1.0 + u)), np.exp(-_A[m] * (1.0 - u))
        out = out + np.cos(_A[m] * dx) * (_IMAGE_A[m] * (p + q) + _IMAGE_B[m] * u * (p - q))
    return out


def green2_origin():
    """G2(0) = 1/720 + zeta(3)/(16 pi^3) plus the periodic images at u = 0."""
    return 1.0 / 720.0 + ZETA3 / (16.0 * np.pi**3) + float(np.sum(2.0 * _R * _IMAGE_A))


def pair_energy(curve):
    """int |Dv_E|^2 = 4 int int nu.nu' G2(x - x') ds ds' by the zeta-corrected
    trapezoid rule: each marker's inner integral gains 2 zeta'(-2) w_i^3 / 8pi."""
    pts, nu, w = curve.markers(), curve.normals(), curve.arclength_weights()
    iu, ju = np.triu_indices(curve.n_markers, 1)
    pairs = green2(pts[iu], pts[ju]) * (nu[iu, 0] * nu[ju, 0] + nu[iu, 1] * nu[ju, 1])
    off = float(np.sum(w[iu] * w[ju] * pairs))
    diag = float(np.sum(w**2 * (green2_origin() + ZETA_R2LOG * w**2)))
    return 4.0 * (2.0 * off + diag)
