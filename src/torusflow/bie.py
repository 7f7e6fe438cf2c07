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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import ResolutionError, SingularityError
from .geometry import curvature, integrate_ds

# solve_jump refuses a system whose estimated 1-norm condition number exceeds this.
COND_LIMIT = 1e12
_GREEN_SERIES_TERMS = 12
# C_m = 1 / ((1 - e^(-2 pi m)) 2 pi m), m = 1.._GREEN_SERIES_TERMS: the Fourier
# coefficients of the periodic correction to the cylinder kernel.
_SERIES_M = np.arange(1, _GREEN_SERIES_TERMS + 1)
_SERIES_COEF = 1.0 / ((1.0 - np.exp(-2.0 * np.pi * _SERIES_M)) * (2.0 * np.pi * _SERIES_M))


def _wrap_half(z):
    return z - np.round(z)


def _series_terms(umax):
    """Terms needed for 1e-13 truncation: e^(-2 pi m (1-u)) below 1e-13."""
    return int(min(_GREEN_SERIES_TERMS, np.ceil(30.0 / (2.0 * np.pi * max(1.0 - umax, 0.5)))))


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


def _modes(dx, dy, terms, sines=False):
    """Yield (C_m, cos 2 pi m dx, sin 2 pi m dx, e^(-2 pi m (1+|dy|)), e^(-2 pi m (1-|dy|)))
    for m = 1..terms.

    One cos (and sin) and two exp in all: the harmonics follow the Chebyshev
    recurrences c_(m+1) = 2 c_1 c_m - c_(m-1) (first kind for cos, second kind
    for sin) and the exponentials are powers of their m = 1 values.  The sines
    are None unless requested.
    """
    u = np.abs(dy)
    c1 = np.cos(2.0 * np.pi * dx)
    s1 = np.sin(2.0 * np.pi * dx) if sines else None
    p1 = np.exp(-2.0 * np.pi * (1.0 + u))
    q1 = np.exp(-2.0 * np.pi * (1.0 - u))
    two_c1 = 2.0 * c1
    c_prev, c, s_prev, s, p, q = 1.0, c1, 0.0, s1, p1, q1
    for m in range(terms):
        yield _SERIES_COEF[m], c, s, p, q
        if m + 1 < terms:
            c_prev, c = c, two_c1 * c - c_prev
            if sines:
                s_prev, s = s, two_c1 * s - s_prev
            p, q = p * p1, q * q1


def _green_raw(dx, dy, s2, terms=_GREEN_SERIES_TERMS):
    """Green function from wrapped displacements and s2 = sin^2 pi dx + sinh^2 pi dy
    (no singularity guard)."""
    out = -np.log(4.0 * s2) / (4.0 * np.pi)
    out += 0.5 * (dy**2 + 1.0 / 6.0)
    for coef, c, _, p, q in _modes(dx, dy, terms):
        out += coef * (c * (p + q))
    return out


def periodic_green_kernel(x, y=None):
    """Green function G(x,y) of -Lap on T^2 with -Lap G = delta - 1, zero mean.

    Evaluated through the cylinder kernel -log(4(sin^2 pi dx + sinh^2 pi dy))/4pi
    plus an exponentially convergent Fourier correction; absolute error below
    1e-12 everywhere.  Accepts points or arrays; y may be omitted when x
    already holds displacements.
    """
    return _green_raw(*_separation(x, y))


def green_regular_origin():
    """R(0) where R(z) = G(z) + log|z|/(2 pi) is the smooth remainder."""
    tail = 2.0 * np.exp(-2.0 * np.pi * _SERIES_M) * _SERIES_COEF
    return -np.log(2.0 * np.pi) / (2.0 * np.pi) + 1.0 / 12.0 + float(tail.sum())


def periodic_green_gradient(x, y=None):
    """Gradient of G with respect to its first argument."""
    dx, dy, s2 = _separation(x, y)
    gx = -np.sin(2.0 * np.pi * dx) / (4.0 * s2)
    gy = -np.sinh(2.0 * np.pi * dy) / (4.0 * s2) + dy
    sgn = np.sign(dy)
    for m, (coef, c, s, p, q) in enumerate(_modes(dx, dy, _GREEN_SERIES_TERMS, sines=True), 1):
        a = 2.0 * np.pi * m
        gx -= (a * coef) * (s * (p + q))
        gy += (a * coef) * (c * (sgn * (q - p)))
    return np.stack([gx, gy], axis=-1)


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


@dataclass
class SingleLayerOperator:
    """Nystrom discretization of (S sigma)(x) = int G(x,y) sigma(y) ds(y)."""

    kernel: np.ndarray  # symmetric kernel matrix, log part folded in
    weights: np.ndarray  # arclength quadrature weights

    @property
    def matrix(self):
        """Matrix mapping marker densities to potential values."""
        return self.kernel * self.weights[None, :]

    def apply(self, sigma):
        return self.kernel @ (self.weights * np.asarray(sigma))

    def quadratic_form(self, phi):
        """Double integral of G against the density phi twice (the nonlocal pairing)."""
        wphi = self.weights * np.asarray(phi)
        return float(wphi @ (self.kernel @ wphi))


def assemble_single_layer(curve):
    """Dense single-layer matrix with Kress log quadrature on the diagonal blocks.

    The kernel is symmetric: the Green series runs on the strict upper
    triangle of each diagonal block and once on each cross block.
    """
    slices = curve.loop_slices()
    weights = curve.arclength_weights()
    kernel = np.zeros((curve.n_markers, curve.n_markers))
    r0 = green_regular_origin()
    for lp, sl in zip(curve.components, slices):
        n = lp.n
        iu, ju, table = _diagonal_block_tables(n)
        pts = lp.markers
        dx, dy, s2 = _separation(np.take(pts, iu, axis=0), np.take(pts, ju, axis=0))
        g = np.zeros((n, n))
        g[iu, ju] = _green_raw(dx, dy, s2, terms=_series_terms(np.abs(dy).max()))
        block = g + g.T + table
        # R(0) - log|x'|/2pi on the diagonal, with the speed |x'| = n w / 2pi
        block.flat[:: n + 1] += r0 - np.log(weights[sl] * (n / (2.0 * np.pi))) / (2.0 * np.pi)
        kernel[sl, sl] = block
    # cross-loop blocks: smooth kernel, plain trapezoid
    for i, (lpi, sli) in enumerate(zip(curve.components, slices)):
        for lpj, slj in zip(curve.components[i + 1:], slices[i + 1:]):
            dx, dy, s2 = _separation(lpi.markers[:, None, :], lpj.markers[None, :, :])
            block = _green_raw(dx, dy, s2, terms=_series_terms(np.abs(dy).max()))
            kernel[sli, slj] = block
            kernel[slj, sli] = block.T
    return SingleLayerOperator(kernel=kernel, weights=weights)


def potential_normal_derivative(curve, operator=None):
    """d_nu v_E on the curve through the single-layer identity Dv_E = -2 S[nu].

    Integrating -Lap v_E = u_E - m by parts against the Green kernel turns the
    bulk gradient into a single layer with the vector density -2 nu, so the
    trace inherits the Kress quadrature's spectral accuracy.
    """
    op = operator if operator is not None else assemble_single_layer(curve)
    nu = curve.normals()
    gx = op.apply(nu[:, 0])
    gy = op.apply(nu[:, 1])
    return -2.0 * (gx * nu[:, 0] + gy * nu[:, 1])


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


@dataclass
class JumpSolution:
    """Solution bundle of the harmonic jump problem on one curve.

    The one-sided normal derivatives (adjoint double layer) are assembled
    lazily; flow stepping needs only the jump.
    """

    curve: object
    boundary_data: np.ndarray
    density: np.ndarray  # single-layer density sigma, zero weighted mean
    jump: np.ndarray  # [d_nu w] = -sigma
    additive_constant: float
    weights: np.ndarray
    rcond: float  # gecon reciprocal 1-norm condition estimate
    _ks: np.ndarray = None

    def _adjoint_apply(self):
        if self._ks is None:
            kstar = adjoint_double_layer(self.curve)
            self._ks = kstar @ (self.weights * self.density)
        return self._ks

    @property
    def one_sided_plus(self):
        return self._adjoint_apply() - 0.5 * self.density

    @property
    def one_sided_minus(self):
        return self._adjoint_apply() + 0.5 * self.density

    def dissipation(self):
        """int |Dw|^2 = -int_boundary g [d_nu w] ds (nonnegative)."""
        return -integrate_ds(self.curve, self.boundary_data * self.jump)


def solve_jump(curve, g, operator=None):
    """Solve S[sigma] + c = g with int sigma ds = 0; return the jump bundle."""
    gv = curve.require_samples(g)
    if not np.all(np.isfinite(gv)):
        raise ValueError("boundary data must be finite")
    op = operator if operator is not None else assemble_single_layer(curve)
    n = curve.n_markers
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = op.matrix
    A[:n, n] = 1.0
    A[n, :n] = op.weights
    rhs = np.concatenate([gv, [0.0]])
    lu, piv = lu_factor(A)
    gecon = get_lapack_funcs("gecon", (A,))
    rcond = gecon(lu, np.linalg.norm(A, 1))[0]
    if rcond < 1.0 / COND_LIMIT:
        raise ResolutionError(
            f"single-layer system condition ~{1.0 / max(rcond, 1e-300):.2e}; "
            "increase the marker count"
        )
    sol = lu_solve((lu, piv), rhs)
    sigma, c = sol[:n], float(sol[n])
    return JumpSolution(
        curve=curve,
        boundary_data=gv,
        density=sigma,
        jump=-sigma,
        additive_constant=c,
        weights=op.weights,
        rcond=float(rcond),
    )


def write_jump_csv(solution, path):
    """Per-marker dump: loop,idx,s,g,sigma,jump,dnw_plus,dnw_minus."""
    curve = solution.curve
    lines = ["loop,idx,s,g,sigma,jump,dnw_plus,dnw_minus"]
    pos = 0
    for li, lp in enumerate(curve.components):
        s = lp.arclength()
        for j in range(lp.n):
            k = pos + j
            lines.append(
                f"{li},{j},{s[j]:.17g},{solution.boundary_data[k]:.17g},"
                f"{solution.density[k]:.17g},{solution.jump[k]:.17g},"
                f"{solution.one_sided_plus[k]:.17g},{solution.one_sided_minus[k]:.17g}"
            )
        pos += lp.n
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
