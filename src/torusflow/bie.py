"""First-kind boundary-integral solver for the two-phase harmonic jump problem.

Given boundary data g on the interface, solves for w with

    Lap w = 0  off the curve,   w = g  on the curve,

as a single-layer potential w = S[sigma] + c over the periodic Green function,
with the compatibility constraint int sigma ds = 0 absorbing the kernel's
one-dimensional nullspace.  The normal-derivative jump is [d_nu w] = -sigma
and the one-sided derivatives follow from the adjoint double layer.

Sign conventions pinned here (and verified against the Fourier strip oracle in
the tests): [d_nu w] = d_nu w^+ - d_nu w^-, and with boundary data g = H the
resulting normal velocity makes a perturbed disk relax back to the disk.

G is the cylinder kernel times the Jacobi theta product of its periodic images,
one log per entry; only G2 below, which has no product form, sums the images.

The nonlocal potential v_E of the phase needs no grid either: its gradient on
the curve is the single layer -2 S[nu], its values are fixed by one row per
loop of the gradient of the closed-form biharmonic Green function G2
(-Lap G2 = G), and its Dirichlet energy follows from those values, d_nu v_E
and the single layer by Green's second identity.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.special import zeta

from .errors import ResolutionError, SingularityError
from .geometry import apply_symbol, curvature, enclosed_area, spectral_factor

# solve_jump refuses a system whose estimated 1-norm condition number exceeds this.
COND_LIMIT = 1e12
_GREEN_SERIES_TERMS = 12
# r^j = e^(-2 pi j): G's theta factor F_j = |1 - r^j e^(2 pi i z)|^2 |1 - r^j e^(-2 pi i z)|^2,
# z = dx + i dy, is 1 to round-off past j = 5
_THETA_R = np.exp(-2.0 * np.pi * np.arange(1, 6))


def _wrap_half(z):
    return z - np.round(z)


def _separation(x, y):
    """Wrapped displacement (dx, dy) of x - y (or of x alone) and its s2 term.

    Raises SingularityError where the points coincide on the torus.
    """
    x = np.asarray(x, dtype=float)
    dx, dy = x[..., 0], x[..., 1]
    if y is not None:
        y = np.asarray(y, dtype=float)
        dx, dy = dx - y[..., 0], dy - y[..., 1]
    dx, dy = _wrap_half(dx), _wrap_half(dy)
    s2 = np.sin(np.pi * dx) ** 2 + np.sinh(np.pi * dy) ** 2
    if np.any(s2 < 1e-28):
        raise SingularityError("Green function evaluated at coincident points")
    return dx, dy, s2


def _modes(c1, dy, s1):
    """Yield (cos 2 pi m dx, sin 2 pi m dx, e^(-2 pi m (1+|dy|)), e^(-2 pi m (1-|dy|)))
    for m = 1.._GREEN_SERIES_TERMS, from c1 = cos 2 pi dx and s1 = sin 2 pi dx.

    Two exp in all: the harmonics follow the Chebyshev recurrences c_(m+1) =
    2 c_1 c_m - c_(m-1) (first kind for cos, second kind for sin) and the
    exponentials are powers of their m = 1 values.
    """
    u = np.abs(dy)
    p1, q1 = np.exp(-2.0 * np.pi * (1.0 + u)), np.exp(-2.0 * np.pi * (1.0 - u))
    two_c1 = 2.0 * c1
    c_prev, c, s_prev, s, p, q = 1.0, c1, 0.0, s1, p1, q1
    for m in range(_GREEN_SERIES_TERMS):
        yield c, s, p, q
        if m + 1 < _GREEN_SERIES_TERMS:
            c_prev, c = c, two_c1 * c - c_prev
            s_prev, s = s, two_c1 * s - s_prev
            p, q = p * p1, q * q1


def _green_raw(c1, dy, s2, out=None, scratch=None):
    """G from c1 = cos 2 pi dx, the wrapped dy and s2 = sin^2 pi dx + sinh^2 pi dy (no
    singularity guard), into `out` if given (s2 itself may be it), in 3 `scratch` arrays:
    -log(4 s2 prod_j F_j)/4pi + (dy^2 + 1/6)/2, F_j = (1 - r^2j)^2 + 16 r^2j s2^2 -
    4 r^j (1 - r^j)^2 ch c1 with ch = cosh 2 pi dy = 2 s2 + c1, so no exp runs."""
    if scratch is None:
        scratch = np.empty((3,) + np.shape(dy))
    # indexing with ... keeps the slots of 0-d inputs arrays, so out= works
    chc, sq, work = (scratch[k, ...] for k in range(3))
    np.multiply(s2, 2.0, out=chc)
    chc += c1
    chc *= c1
    np.multiply(s2, s2, out=sq)  # both before out (maybe s2) is written
    out = np.multiply(s2, 4.0, out=np.empty_like(work) if out is None else out)
    for r in _THETA_R:
        np.multiply(chc, -(1.0 - r) ** 2 / (4.0 * r), out=work)
        work += sq
        work *= 16.0 * r * r
        work += (1.0 - r * r) ** 2
        out *= work
    np.log(out, out=out)
    out /= -4.0 * np.pi
    np.multiply(dy, dy, out=work)
    work += 1.0 / 6.0
    work *= 0.5
    out += work
    return out


def green_regular_origin():
    """R(0) where R(z) = G(z) + log|z|/(2 pi); the theta factor F_j is (1 - r^j)^4 there."""
    tail = np.log1p(-_THETA_R).sum()
    return -np.log(2.0 * np.pi) / (2.0 * np.pi) + 1.0 / 12.0 - float(tail) / np.pi


def periodic_green_gradient(x, y=None):
    """Gradient of G in its first argument: the logarithmic derivative of its theta product."""
    dx, dy, s2 = _separation(x, y)
    c, s1, sh = np.cos(2.0 * np.pi * dx), np.sin(2.0 * np.pi * dx), np.sinh(2.0 * np.pi * dy)
    ch = 2.0 * s2 + c
    gx = -s1 / (4.0 * s2)
    gy = -sh / (4.0 * s2) + dy
    for r in _THETA_R:
        f = (1.0 - r * r) ** 2 + 16.0 * r * r * s2 * s2 - 4.0 * r * (1.0 - r) ** 2 * ch * c
        gx -= 2.0 * r * s1 * ((1.0 + r * r) * ch - 2.0 * r * c) / f
        gy -= 2.0 * r * sh * (2.0 * r * ch - (1.0 + r * r) * c) / f
    return np.stack([gx, gy], axis=-1)


# -- the biharmonic Green function G2: -Lap G2 = G, zero mean --------------------

_ZETA2 = np.pi**2 / 6.0
_ZETA3 = float(zeta(3.0))
# The zeta-corrected trapezoid rule (Wu & Martinsson, Adv. Comput. Math. 47, 2021):
# a trapezoid sum of spacing w over an integrand s^2 log|s| phi(s) at its node
# s = 0 gains 2 zeta'(-2) w^3 phi(0), zeta'(-2) = -zeta(3)/(4 pi^2).  G2's singular
# part is r^2 log r / (8 pi), so its correction is this constant times w^3 phi(0).
_ZETA_R2LOG = 2.0 * (-_ZETA3 / (4.0 * np.pi**2)) / (8.0 * np.pi)
_POLYLOG_TERMS = 48
# Coefficients a_j = zeta(-1-2j)/(2j+3)! of the log-series Li2(e^mu) = zeta(2) +
# mu (1 - log(-mu)) - mu^2/4 + mu^3 sum_j a_j mu^2j, |mu| < 2 pi, with
# zeta(-1-2j) from the functional equation; read-only.
_LI_POWERS = 2 * np.arange(_POLYLOG_TERMS) + 3
_LI_A = (2.0 * (-1.0) ** (_LI_POWERS // 2) * zeta(_LI_POWERS - 1.0)
         / ((2.0 * np.pi) ** (_LI_POWERS - 1) * (_LI_POWERS - 1) * _LI_POWERS))
_LI_A.flags.writeable = False
# Per m = 1.._GREEN_SERIES_TERMS, with a = 2 pi m and r = e^(-a): the periodic
# images of the cylinder term of G2 are cos(2 pi m x) (A_m (p + q) + B_m u (p - q)),
# p = e^(-a (1+u)), q = e^(-a (1-u)); their u-derivative is
# cos(2 pi m x) (C_m (q - p) - D_m u (p + q)).
_A2 = 2.0 * np.pi * np.arange(1, _GREEN_SERIES_TERMS + 1)
_R2 = np.exp(-_A2)
_G2_A = (1.0 + _A2 / (1.0 - _R2)) / (2.0 * _A2**3 * (1.0 - _R2))
_G2_B = 1.0 / (2.0 * _A2**2 * (1.0 - _R2))
_G2_C = 1.0 / (2.0 * _A2 * (1.0 - _R2) ** 2)
_G2_D = 1.0 / (2.0 * _A2 * (1.0 - _R2))


def _li2(mu):
    """Li2(e^mu) by the log-series, for 0 < |mu| < 2 pi.

    The series converges geometrically in |mu|/2pi, at most 1/sqrt(2) on the
    wrapped cell; it is summed while a_j |mu|^(2j+3) exceeds 1e-16.
    """
    mu_max = float(np.abs(mu).max())
    terms = max(2, int(np.count_nonzero(np.abs(_LI_A) * mu_max ** _LI_POWERS > 1e-16)) + 1)
    z = mu * mu
    p2 = np.full_like(mu, _LI_A[terms - 1])
    for j in range(terms - 2, -1, -1):
        p2 *= z
        p2 += _LI_A[j]
    return _ZETA2 + mu * (1.0 - np.log(-mu)) - 0.25 * z + (z * mu) * p2


def _green2_gradient_raw(dx, dy):
    """(d_x G2, d_y G2) from wrapped displacements, not at the origin: G2 is
    -B4(u)/24 + Re[Li3(q) + 2 pi u Li2(q)]/(16 pi^3) plus its periodic images,
    u = |dy| and q = e^(2 pi i (dx + i u)), so the cylinder sum differentiates
    to Li2(q) and log(1 - q)."""
    u = np.abs(dy)
    mu = (2.0 * np.pi) * (1j * dx - u)
    li2 = _li2(mu)
    log1q = np.log(-np.expm1(mu))
    gx = (2.0 * np.pi * u * log1q.imag - li2.imag) / (8.0 * np.pi**2)
    gu = u * log1q.real / (4.0 * np.pi) - u * (u - 0.5) * (u - 1.0) / 6.0
    x2 = 2.0 * np.pi * dx
    for m, (c, s, p, q) in enumerate(_modes(np.cos(x2), dy, np.sin(x2))):
        gx -= _A2[m] * s * (_G2_A[m] * (p + q) + _G2_B[m] * u * (p - q))
        gu += c * (_G2_C[m] * (q - p) - _G2_D[m] * u * (p + q))
    return gx, np.sign(dy) * gu


def _kress_log_weights(n):
    """Quadrature weights R_{i-j} with sum_j R_{i-j} f(t_j) approximating
    int_0^{2pi} log(4 sin^2((t_i - s)/2)) f(s) ds, spectrally exact for
    trigonometric polynomials."""
    lam = np.zeros(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    nz = k != 0
    lam[nz] = -1.0 / np.abs(k[nz])
    # symbol of the periodic log kernel: (1/2pi) int log(4 sin^2(s/2)) e^{-iks} ds
    return 2.0 * np.pi * np.fft.ifft(lam * n).real / n


@functools.lru_cache(maxsize=16)
def _diagonal_block_tables(n):
    """The parts of a diagonal block that depend only on the loop's n markers,
    built once per n and read-only: the strict upper triangle (iu, ju) and the
    n x n table log(4 sin^2((t_i - t_j)/2))/4pi minus the Kress weights."""
    t = 2.0 * np.pi * np.arange(n) / n
    dt = t[:, None] - t[None, :]
    off = ~np.eye(n, dtype=bool)
    logpart = np.log(4.0 * np.sin(0.5 * dt) ** 2, where=off, out=np.zeros((n, n)))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    table = (logpart - _kress_log_weights(n)[idx] * (n / (2.0 * np.pi))) / (4.0 * np.pi)
    iu, ju = np.triu_indices(n, 1)
    for arr in (iu, ju, table):
        arr.flags.writeable = False
    return iu, ju, table


def _pair_green(sx, cx, y, i, j, scratch):
    """G between markers i and j from their sin pi x, cos pi x and y, in `scratch`
    (6 arrays shaped like the pairs): sin pi dx = sin pi x_i cos pi x_j - cos pi x_i
    sin pi x_j needs no wrap, since only its square enters.  Coincident markers
    raise SingularityError."""
    sn2, dy, s2 = scratch[:3]  # the product then runs in place from s2
    np.multiply(sx[i], cx[j], out=sn2)
    sn2 -= cx[i] * sx[j]
    sn2 *= sn2
    np.subtract(y[i], y[j], out=dy)
    dy -= np.round(dy)
    np.multiply(dy, np.pi, out=s2)
    np.sinh(s2, out=s2)
    s2 *= s2
    s2 += sn2
    if np.any(s2 < 1e-28):
        raise SingularityError("Green function evaluated at coincident points")
    sn2 *= -2.0
    sn2 += 1.0  # cos 2 pi dx
    return _green_raw(sn2, dy, s2, out=s2, scratch=scratch[3:])


def assemble_single_layer(curve):
    """Dense single-layer kernel K with Kress log quadrature on the diagonal blocks:
    (S sigma)(x_i) = sum_j K_ij w_j sigma_j, w the arclength weights.

    The kernel is symmetric: G runs on the strict upper triangle of each diagonal
    block and once on each cross block, from per-marker sines and cosines.  All
    block temporaries share one scratch allocation: once glibc has freed it, its
    dynamic mmap and trim thresholds sit above it, so later calls reuse heap
    pages instead of faulting in new ones.
    """
    slices = curve.loop_slices()
    weights = curve.arclength_weights()
    pts = curve.markers()
    sx, cx, y = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0]), pts[:, 1]
    # the largest block: one triangle, or the cross block of the two largest loops
    ns = sorted((lp.n for lp in curve.components), reverse=True) + [0]
    buf = np.empty((6, max(ns[0] * (ns[0] - 1) // 2, ns[0] * ns[1])))
    kernel = np.empty((curve.n_markers, curve.n_markers))
    r0 = green_regular_origin()
    loops = list(zip(curve.components, slices))
    for lp, sl in loops:
        n = lp.n
        iu, ju, table = _diagonal_block_tables(n)
        g = _pair_green(sx[sl], cx[sl], y[sl], iu, ju, buf[:, : iu.size])
        block = kernel[sl, sl]
        block[iu, ju] = g
        block[ju, iu] = g
        # R(0) - log|x'|/2pi on the diagonal, with the speed |x'| = n w / 2pi
        np.fill_diagonal(block, r0 - np.log(weights[sl] * (n / (2.0 * np.pi))) / (2.0 * np.pi))
        block += table
    # cross-loop blocks: smooth kernel, plain trapezoid
    for a, (lpi, sli) in enumerate(loops):
        for lpj, slj in loops[a + 1:]:
            scratch = buf[:, : lpi.n * lpj.n].reshape(6, lpi.n, lpj.n)
            block = _pair_green(sx, cx, y, (sli, None), (None, slj), scratch)
            kernel[sli, slj] = block
            kernel[slj, sli] = block.T
    return kernel


def potential_gradient(curve, kernel):
    """Dv_E at the markers, (n, 2), through the single-layer identity Dv_E = -2 S[nu].

    Integrating -Lap v_E = u_E - m by parts against the Green kernel turns the
    bulk gradient into a single layer with the vector density -2 nu, so the
    trace inherits the Kress quadrature's spectral accuracy.  `kernel` is
    `assemble_single_layer(curve)`.
    """
    w, nu = curve.arclength_weights(), curve.normals()
    return -2.0 * np.column_stack([kernel @ (w * nu[:, 0]), kernel @ (w * nu[:, 1])])


def _first_rows(curve):
    """Each loop's first marker p, and the (row, marker) pairs of the markers j != p."""
    firsts = np.array([sl.start for sl in curve.loop_slices()])
    r, j = np.nonzero(np.arange(curve.n_markers)[None, :] != firsts[:, None])
    return firsts, r, j


def potential_trace(curve, gradient, kappa):
    """v_E at the markers, with no grid.

    On each loop v_E is the spectral antiderivative of its tangential
    derivative tau . Dv_E (`gradient` from `potential_gradient`).  The value
    at the loop's first marker x_i fixes the constant: one row
    v_E(x_i) = 2 int grad G2(x_i - y) . nu_y ds_y of the biharmonic Green
    function G2, whose integrand vanishes at y = x_i with the singular part
    -kappa_i s^2 log|s| / 8pi that the zeta correction at marker i removes.
    `kappa` is the curvature at the markers.
    """
    pts, nu, w = curve.markers(), curve.normals(), curve.arclength_weights()
    firsts, r, j = _first_rows(curve)
    dx, dy, _ = _separation(pts[firsts[r]], pts[j])
    gx, gy = _green2_gradient_raw(dx, dy)
    rows = 2.0 * (np.bincount(r, weights=w[j] * (gx * nu[j, 0] + gy * nu[j, 1]))
                  - _ZETA_R2LOG * w[firsts] ** 3 * kappa[firsts])
    dv_ds = nu[:, 0] * gradient[:, 1] - nu[:, 1] * gradient[:, 0]  # tau = (-nu_y, nu_x)
    trace = np.empty(curve.n_markers)
    for lp, sl, value in zip(curve.components, curve.loop_slices(), rows):
        dv_da = dv_ds[sl] * w[sl] * (lp.n / (2.0 * np.pi))
        shape = apply_symbol(dv_da, spectral_factor(lp.n, -1))
        trace[sl] = shape + (value - shape[0])
    return trace


def potential_energy(curve, kernel, trace, derivative):
    """int |Dv_E|^2 = 2 int_E v_E from data on the curve, with no grid.

    Green's second identity on E against G(. - p), at a marker p where half
    of the point mass of -Lap G lies in E, gives
    int_E v_E = (m - 1/2) v_p + DL[v_E](p) - S[d_nu v_E](p), m = |E|.  The
    double layer of the constant v_p is (m - 1/2) v_p, so subtracting it
    leaves the smooth integrand (v_E - v_p) d_nu G(. - p), which vanishes at
    p and takes the plain trapezoid rule; the single layer is row p of
    `kernel` (`assemble_single_layer(curve)`).  The result is averaged over
    each loop's first marker.  `trace` is v_E (`potential_trace`) and
    `derivative` is d_nu v_E at the markers.
    """
    pts, nu, w = curve.markers(), curve.normals(), curve.arclength_weights()
    firsts, r, j = _first_rows(curve)
    vp = trace[firsts]
    grad = periodic_green_gradient(pts[j], pts[firsts[r]])
    dl = np.bincount(r, weights=w[j] * (trace[j] - vp[r])
                     * (grad[:, 0] * nu[j, 0] + grad[:, 1] * nu[j, 1]))
    sl = kernel[firsts] @ (w * derivative)
    return 2.0 * float(np.mean((2.0 * enclosed_area(curve) - 1.0) * vp + dl - sl))


def adjoint_double_layer(curve):
    """Matrix of K*: the normal derivative (at the target) of the single layer.

    The kernel is smooth for C^2 curves; the diagonal carries the curvature
    limit -kappa/(4 pi).
    """
    pts = curve.markers()
    nu = curve.normals()
    z = pts[:, None, :] - pts[None, :, :]
    n_tot = curve.n_markers
    eye = np.eye(n_tot, dtype=bool)
    z[eye] = 0.25  # dummy separation; the diagonal is overwritten below
    grad = periodic_green_gradient(z)
    kmat = grad[..., 0] * nu[:, None, 0] + grad[..., 1] * nu[:, None, 1]
    kmat[eye] = -curvature(curve) / (4.0 * np.pi)
    return kmat


def solve_jump(curve, g, kernel):
    """Solve S[sigma] + c = g with int sigma ds = 0, S the single layer of
    `kernel` (`assemble_single_layer(curve)`); return (sigma, c, rcond), with
    rcond the gecon estimate of the bordered system's reciprocal 1-norm
    condition number.  The normal-derivative jump is [d_nu w] = -sigma."""
    gv = curve.require_samples(g)
    if not np.all(np.isfinite(gv)):
        raise ValueError("boundary data must be finite")
    weights = curve.arclength_weights()
    n = curve.n_markers
    # filled and factored in place: the bordered matrix is the only n^2 temporary
    A = np.empty((n + 1, n + 1), order="F")
    np.multiply(kernel, weights, out=A[:n, :n])
    A[:n, n] = 1.0
    A[n, :n] = weights
    A[n, n] = 0.0
    rhs = np.concatenate([gv, [0.0]])
    lange, gecon = get_lapack_funcs(("lange", "gecon"), (A,))
    anorm = lange("1", A)
    lu, piv = lu_factor(A, overwrite_a=True)
    rcond = gecon(lu, anorm)[0]
    if rcond < 1.0 / COND_LIMIT:
        raise ResolutionError(
            f"single-layer system condition ~{1.0 / max(rcond, 1e-300):.2e}; "
            "increase the marker count"
        )
    sol = lu_solve((lu, piv), rhs)
    return sol[:n], float(sol[n]), float(rcond)
