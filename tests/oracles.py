"""Independent oracles for the test suite.

Everything here is derived without the package's own numerical paths:
1D boundary-value problems solved by hand, free-space closed forms, Fourier
half-space matching, adaptive quadrature of analytic integrands.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh, null_space


# -- 1D strip electrostatics -----------------------------------------------


def strip_dirichlet_energy(h):
    """int |Dv|^2 for the strip potential: -v'' = u - m, u = +-1, m = 2h-1."""
    return (h * (1.0 - h)) ** 2 / 3.0


def strip_normal_derivative(h):
    """d_nu v_E at either interface of the strip (outward normal)."""
    return -h * (1.0 - h)


def strip_boundary_potential(h):
    """v_E at the interfaces of the strip (zero-mean 1D profile endpoint value)."""
    return h * (1.0 - h) * (1.0 - 2.0 * h) / 6.0


def strip_potential_profile(y, h):
    """Zero-mean solution of -v'' = u - m, u = +1 on (0,h), periodic in y."""
    y = np.asarray(y, dtype=float) % 1.0
    v0 = h * (1.0 - h) * (1.0 - 2.0 * h) / 6.0
    inside = v0 + (1.0 - h) * (h * y - y**2)
    u = y - h
    outside = v0 - h * (1.0 - h) * u + h * u**2
    return np.where(y < h, inside, outside)


def two_delta_profile(y, h):
    """Zero-mean potential of the measure (+1 at y=h, -1 at y=0) on the unit circle."""
    y = np.asarray(y, dtype=float) % 1.0
    s1, s2 = 1.0 - h, -h
    v = np.where(y < h, s1 * y, s2 * y + h)
    yy = np.linspace(0.0, 1.0, 20001)[:-1]
    mean = np.mean(np.where(yy < h, s1 * yy, s2 * yy + h))
    return v - mean


# -- Fourier strip oracle for the harmonic jump problem ----------------------


def strip_jump(k, h, g_bottom, g_top):
    """[d_nu w] coefficients for boundary data g * cos(2 pi k x) on a strip.

    Interfaces at y=0 (bottom, outward normal -y) and y=h (top, outward +y);
    w is the piecewise cosh/sinh matching solution in y.
    Returns (jump_bottom, jump_top) coefficients of cos(2 pi k x).
    """
    q = 2.0 * np.pi * k
    a = 1.0 / np.tanh(q * h) + 1.0 / np.tanh(q * (1.0 - h))
    b = 1.0 / np.sinh(q * h) + 1.0 / np.sinh(q * (1.0 - h))
    return q * (b * g_top - a * g_bottom), q * (b * g_bottom - a * g_top)


def ms_strip_rate(k, h, branch="slow"):
    """Linearized Mullins-Sekerka decay rate of a mode-k strip perturbation.

    In outward-normal displacement coordinates the slow branch displaces both
    interfaces outward together; the fast branch is the opposite pairing.
    """
    q = 2.0 * np.pi * k
    a = 1.0 / np.tanh(q * h) + 1.0 / np.tanh(q * (1.0 - h))
    b = 1.0 / np.sinh(q * h) + 1.0 / np.sinh(q * (1.0 - h))
    return q**3 * (a - b) if branch == "slow" else q**3 * (a + b)


def sd_flat_rate(k):
    """Surface diffusion decay rate of a mode-k graph over a flat interface."""
    return (2.0 * np.pi * k) ** 4


def ms_circle_rate(k, r):
    """Free-space Mullins-Sekerka rate of mode k on a circle of radius r."""
    return 2.0 * k * (k**2 - 1) / r**3


def sd_circle_rate(k, r):
    """Surface diffusion rate of mode k on a circle of radius r."""
    return k**2 * (k**2 - 1) / r**4


# -- second variation closed forms -------------------------------------------


def circle_rayleigh(k, r):
    """Second-variation Rayleigh quotient of cos(k theta) on a circle, gamma=0."""
    return (k**2 - 1) / r**2


def lamella_rayleigh(k):
    """Rayleigh quotient of a mode-k graph over a flat interface, gamma=0."""
    return (2.0 * np.pi * k) ** 2


def lamella_mode_coupling(m, d):
    """x-mode-m transform of the torus Green function between lines distance d apart."""
    a = 2.0 * np.pi * m
    u = abs(d) % 1.0
    u = min(u, 1.0 - u)
    return np.cosh(a * (0.5 - u)) / (2.0 * a * np.sinh(0.5 * a))


def single_strip_gamma_star(h=0.5, m=1):
    """gamma where the single strip loses strict stability (meander mode m).

    The dangerous perturbation is cos(2 pi m x) with opposite signs on the
    two interfaces; the threshold solves
    (2 pi m)^2 + 8 g (G_m(0) - G_m(h)) - 4 g h(1-h) = 0.
    """
    g0 = lamella_mode_coupling(m, 0.0)
    gh = lamella_mode_coupling(m, h)
    denom = 4.0 * h * (1.0 - h) - 8.0 * (g0 - gh)
    return (2.0 * np.pi * m) ** 2 / denom if denom > 0 else np.inf


def lamella_shift_rates(k, h, gamma):
    """Mullins-Sekerka decay rates of rigid interface shifts of the k-strip lamella.

    Constant normal displacements a_i of the 2k flat interfaces (zero sum, for
    the area) span an invariant subspace of the linearised flow, on which the
    second variation is 8 gamma M + 4 gamma d I and the H^-1 metric is M:
    M_ij = G0(y_i - y_j) with the zero-mean 1D Green function
    G0(u) = (u^2 - u + 1/6)/2, u taken mod 1, and d = -h(1-h)/k the value of
    d_nu v_E on every interface.  Returns the rates ascending (the y
    translation's 0 first) and their M-orthonormal eigenvectors as columns,
    interfaces in the loop order of `shapes.lamella`.
    """
    y = np.ravel([[j / k, (j + h) / k] for j in range(k)])
    u = np.mod(y[:, None] - y[None, :], 1.0)
    M = 0.5 * (u * u - u + 1.0 / 6.0)
    d = -h * (1.0 - h) / k
    P = null_space(np.ones((1, 2 * k)))  # orthonormal basis of the zero-sum space
    rates, coeffs = eigh(P.T @ (8.0 * gamma * M + 4.0 * gamma * d * np.eye(2 * k)) @ P,
                         P.T @ M @ P)
    return rates, P @ coeffs


# -- geometry ----------------------------------------------------------------


def ellipse_perimeter(a, b):
    f = lambda t: np.hypot(a * np.sin(t), b * np.cos(t))
    return quad(f, 0.0, 2.0 * np.pi, limit=200)[0]


def perturbed_circle_area(r, eps):
    """Area of r(theta) = r + eps cos(k theta), any k >= 1."""
    return np.pi * r**2 + 0.5 * np.pi * eps**2


def perturbed_circle_perimeter(r, eps, k):
    f = lambda t: np.hypot(r + eps * np.cos(k * t), -eps * k * np.sin(k * t))
    return quad(f, 0.0, 2.0 * np.pi, limit=200)[0]


def circle_lens_sym_diff(r, d):
    """|E Delta F| for two radius-r disks whose centers are d apart (d < 2r)."""
    lens = 2.0 * r**2 * np.arccos(d / (2.0 * r)) - 0.5 * d * np.sqrt(4.0 * r**2 - d**2)
    return 2.0 * (np.pi * r**2 - lens)


def graph_curvature(psi, dpsi, ddpsi):
    """kappa of y = psi(x) with the phase below (outer normal upward)."""
    return -ddpsi / (1.0 + dpsi**2) ** 1.5
