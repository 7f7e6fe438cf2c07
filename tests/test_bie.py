"""Periodic Green function and the single-layer jump solver."""

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from g2_reference import green2, green2_origin, pair_energy
from torusflow import shapes
from torusflow.bie import (
    _diagonal_block_tables,
    _green2_gradient_raw,
    _green_raw,
    _kress_log_weights,
    _separation,
    assemble_single_layer,
    green_regular_origin,
    periodic_green_gradient,
    potential_energy,
    potential_gradient,
    potential_trace,
    solve_jump,
)
from torusflow.errors import SingularityError
from torusflow.flow import Evaluation
from torusflow.geometry import curvature, integrate_ds


# -- kernel --------------------------------------------------------------------


def periodic_green_kernel(x, y=None):
    """G(x, y) from the package's raw kernel; y may be omitted when x already
    holds displacements."""
    dx, dy, s2 = _separation(x, y)
    return _green_raw(np.cos(2.0 * np.pi * dx), dy, s2)[()]


def biharmonic_green_gradient(x, y=None):
    """The gradient of G2 in its first argument from the package's raw kernel."""
    dx, dy, _ = _separation(x, y)
    return np.stack(_green2_gradient_raw(dx, dy), axis=-1)


def test_green_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 1, (12, 2)), rng.uniform(0, 1, (12, 2))
    assert np.abs(periodic_green_kernel(x, y) - periodic_green_kernel(y, x)).max() < 1e-13


def test_green_periodicity_exact():
    rng = np.random.default_rng(4)
    x, y = rng.uniform(0, 1, (6, 2)), rng.uniform(0, 1, (6, 2))
    g0 = periodic_green_kernel(x, y)
    for shift in ([1.0, 0.0], [0.0, 1.0], [2.0, -1.0]):
        assert np.abs(periodic_green_kernel(x + shift, y) - g0).max() < 1e-13


def _fourier_sum_reference(x, y, terms=800):
    # 1D-resummed series: B2(y) + 2 sum_m K_m(y) cos(2 pi m x)
    u = abs(y - round(y))
    out = 0.5 * (u * u - u + 1.0 / 6.0)
    for m in range(1, terms + 1):
        a = 2 * np.pi * m
        km = (np.exp(-a * u) + np.exp(-a * (1 - u))) / ((1 - np.exp(-a)) * 4 * np.pi * m)
        out += 2 * km * np.cos(2 * np.pi * m * (x - round(x)))
    return out


def test_green_against_independent_fourier_sum():
    rng = np.random.default_rng(5)
    for _ in range(6):
        p = rng.uniform(-0.5, 0.5, 2)
        if abs(p[1]) < 0.05:
            p[1] += 0.1
        assert abs(periodic_green_kernel(p) - _fourier_sum_reference(*p)) < 1e-12


def _fourier_gradient_reference(x, y, terms=800):
    # the term-by-term derivative of _fourier_sum_reference
    dx, dy = x - round(x), y - round(y)
    u = abs(dy)
    gx, gu = 0.0, u - 0.5
    for m in range(1, terms + 1):
        a = 2 * np.pi * m
        scale = 2.0 / ((1 - np.exp(-a)) * 4 * np.pi * m)
        km = scale * (np.exp(-a * u) + np.exp(-a * (1 - u)))
        gx -= a * km * np.sin(a * dx)
        gu += scale * a * (np.exp(-a * (1 - u)) - np.exp(-a * u)) * np.cos(a * dx)
    return np.array([gx, np.sign(dy) * gu])


@pytest.mark.parametrize(
    "p",
    [(0.3, 0.5), (0.3, -0.4999999), (-0.1, 0.49), (0.5, 0.2), (-0.4999999, 0.1),
     (0.4999, -0.3), (0.5, 0.5), (-0.4999999, -0.4999999)],
)
def test_green_raw_series_near_cell_edges(p):
    # the theta product for G and its logarithmic derivative for grad G against
    # the Fourier series, where dx -> +-1/2 and |dy| -> 1/2
    dx, dy, s2 = _separation(np.array(p), None)
    val = _green_raw(np.cos(2 * np.pi * dx), dy, s2)
    assert abs(val - _fourier_sum_reference(*p)) < 1e-13
    grad = periodic_green_gradient(np.array(p))
    assert np.abs(grad - _fourier_gradient_reference(*p)).max() < 1e-13, grad


def test_green_gradient_finite_differences():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, (200, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.1][:40]
    h = 1e-5
    fd = np.stack(
        [
            (periodic_green_kernel(pts + h * e) - periodic_green_kernel(pts - h * e)) / (2 * h)
            for e in np.eye(2)
        ],
        axis=-1,
    )
    assert np.abs(periodic_green_gradient(pts) - fd).max() < 1e-8


def test_green_near_field_regular():
    # G + log|r|/2pi stays bounded and tends to R(0) quadratically
    r0 = green_regular_origin()
    for r in (1e-3, 1e-5, 1e-6):
        val = periodic_green_kernel(np.array([r, 0.0])) + np.log(r) / (2 * np.pi)
        assert abs(val - r0) < r**2 + 1e-12


def test_green_zero_mean():
    # int G(x, .) dy = 0: quadrature over a fine grid avoiding the singular node
    n = 256
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    z = np.stack([gx, gy], axis=-1)
    vals = periodic_green_kernel(z)
    assert abs(vals.mean()) < 1e-4  # log singularity integrates to a small grid bias


def test_green_singularity_error():
    with pytest.raises(SingularityError):
        periodic_green_kernel(np.array([0.3, 0.7]), np.array([0.3, 0.7]))


# -- biharmonic Green function G2 (-Lap G2 = G) --------------------------------

CATALAN = 0.91596559417721901505


def _g2_fourier_sum(points, K):
    """sum over 0 < max(|k1|, |k2|) <= K of e^(2 pi i k.x) / (16 pi^4 |k|^4)."""
    k = np.arange(-K, K + 1)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    k2 = (kx**2 + ky**2).astype(float)
    k2[K, K] = np.inf
    coef = 1.0 / (16.0 * np.pi**4 * k2**2)
    return np.array([np.sum(coef * np.cos(2 * np.pi * (kx * p[0] + ky * p[1]))) for p in points])


def _g2_points(seed, count, min_norm=0.05):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, (4 * count, 2))
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > min_norm][:count]


def test_biharmonic_green_against_fourier_sum():
    # the lattice sum converges like K^-3 or faster; G2 must agree with the
    # K = 400 sum to better than that sum moved from K = 200
    pts = _g2_points(7, 10)
    coarse, fine = _g2_fourier_sum(pts, 200), _g2_fourier_sum(pts, 400)
    err = np.abs(green2(pts) - fine).max()
    assert err < np.abs(fine - coarse).max() and err < 1e-11, err


def test_biharmonic_green_origin_epstein():
    # G2(0) = sum' 1/(16 pi^4 |k|^4) = 4 zeta(2) beta(2) / (16 pi^4), beta(2) Catalan's constant
    assert green2_origin() == pytest.approx(CATALAN / (24.0 * np.pi**2), rel=1e-14)


def test_biharmonic_green_laplacian_is_green():
    # -Lap G2 = G by fourth-order central differences
    pts, h = _g2_points(8, 30, min_norm=0.1), 1e-3
    lap = 0.0
    for e in (np.array([h, 0.0]), np.array([0.0, h])):
        f = [green2(pts + j * e) for j in (-2, -1, 0, 1, 2)]
        lap += (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    assert np.abs(-lap - periodic_green_kernel(pts)).max() < 1e-9


def test_biharmonic_green_gradient_finite_differences():
    pts, h = _g2_points(9, 30), 1e-5
    fd = np.stack(
        [(green2(pts + e) - green2(pts - e)) / (2 * h)
         for e in (np.array([h, 0.0]), np.array([0.0, h]))],
        axis=-1,
    )
    assert np.abs(biharmonic_green_gradient(pts) - fd).max() < 1e-10


def test_biharmonic_green_zero_mean_and_periodic():
    n = 256
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    assert abs(green2(np.stack([gx, gy], axis=-1)).mean()) < 1e-12
    pts = _g2_points(10, 6)
    g0 = green2(pts)
    for shift in ([1.0, 0.0], [0.0, 1.0], [-1.0, 2.0]):
        assert np.abs(green2(pts + shift) - g0).max() < 1e-15


# -- the grid-free v_E trace and energy ------------------------------------------


def _energy(curve):
    """int |Dv_E|^2 by Green's identity from the curve's single layer and v_E trace."""
    kernel = assemble_single_layer(curve)
    gradient = potential_gradient(curve, kernel)
    trace = potential_trace(curve, gradient, curvature(curve))
    derivative = np.sum(gradient * curve.normals(), axis=1)
    return potential_energy(curve, kernel, trace, derivative)


@pytest.mark.parametrize("h", [0.3, 0.4])
def test_potential_trace_and_energy_strip_oracles(h):
    st = shapes.strip(h, n=96)
    trace = potential_trace(st, potential_gradient(st, assemble_single_layer(st)), curvature(st))
    assert np.abs(trace - oracles.strip_boundary_potential(h)).max() <= 1e-12
    assert abs(_energy(st) - oracles.strip_dirichlet_energy(h)) <= 1e-12


def test_potential_energy_converges_fourth_order():
    energy = [_energy(shapes.perturbed_circle(0.2, 1e-2, 3, n=n)) for n in (64, 256, 512)]
    err64, err256 = abs(energy[0] - energy[2]), abs(energy[1] - energy[2])
    assert np.log(err64 / err256) / np.log(4.0) >= 4.0, (err64, err256)


@pytest.mark.parametrize(
    "curve, rel",
    [
        (shapes.perturbed_strip(0.4, 1e-3, 1, n=96, which="both"), 1e-12),
        (shapes.lamella(3, n_per_loop=64), 1e-12),
        (shapes.lamella(4, n_per_loop=64), 1e-12),
        # curved loops: the differences (measured 6.6e-12, 1.0e-9, 2.4e-9 and
        # 2.0e-10) are the two rules' fifth-order errors, falling as n^-5 (the
        # pair sum's on the strip and the lamella; the v_E trace's zeta-corrected
        # constant shares the error on the disks)
        (shapes.perturbed_lamella(4, 1e-3, 1, n_per_loop=64), 1.5e-11),
        (shapes.perturbed_strip(0.3, 0.05, 2, n=96, which="both"), 2e-9),
        (shapes.perturbed_circle(0.2, 1e-2, 3, n=128), 5e-9),
        (shapes.two_disks(), 4e-10),
    ],
    ids=["strip", "lamella3", "lamella4", "perturbed-lamella4", "perturbed-strip", "circle",
         "two-disks"],
)
def test_potential_energy_matches_g2_pair_sum(curve, rel):
    # Green's identity on the single layer against the double integral of G2
    assert _energy(curve) == pytest.approx(pair_energy(curve), rel=rel, abs=0.0)


def test_potential_trace_refines_on_a_circle():
    # the one G2 row fixes the loop's constant: refinement moves the trace only
    # at the rule's order, so 128 and 256 markers agree closely on the shared markers
    coarse, fine = (shapes.perturbed_circle(0.2, 1e-2, 3, n=n) for n in (128, 256))
    tc, tf = (potential_trace(c, potential_gradient(c, assemble_single_layer(c)), curvature(c))
              for c in (coarse, fine))
    assert np.abs(tc - tf[::2]).max() < 1e-10


# -- single layer ----------------------------------------------------------------


def _single_layer(curve, kernel, sigma):
    """S[sigma] at the markers: the kernel against the arclength-weighted density."""
    return kernel @ (curve.arclength_weights() * sigma)


def _jump(curve, g, kernel=None):
    """([d_nu w], int |Dw|^2) of the jump problem with boundary data g."""
    sigma, _, _ = solve_jump(curve, g, assemble_single_layer(curve) if kernel is None else kernel)
    return -sigma, integrate_ds(curve, g * sigma)


@pytest.fixture(scope="module")
def circle_op():
    c = shapes.circle(0.2, n=128)
    return c, assemble_single_layer(c)


def test_single_layer_symmetric(circle_op):
    _, kernel = circle_op
    assert np.abs(kernel - kernel.T).max() < 1e-12


def test_free_space_circle_single_layer(circle_op):
    # subtracting the periodic remainder leaves the free-space -log/2pi layer,
    # which for unit density on a radius-r circle is -r log r on the circle
    c, kernel = circle_op
    r = 0.2
    s1 = _single_layer(c, kernel, np.ones(c.n_markers))
    pts = c.markers()
    z = pts[:, None, :] - pts[None, :, :]
    eye = np.eye(c.n_markers, dtype=bool)
    z[eye] = 0.25  # dummy separation, diagonal set analytically below
    dist = np.linalg.norm(z, axis=-1)
    reg = periodic_green_kernel(z) + np.log(dist) / (2 * np.pi)
    reg[eye] = green_regular_origin()
    s_free = s1 - reg @ c.arclength_weights()
    np.testing.assert_allclose(s_free, -r * np.log(r), atol=1e-10)


def test_row_sums_against_adaptive_quadrature(circle_op):
    c, kernel = circle_op
    lp = c.components[0]
    s1 = _single_layer(c, kernel, np.ones(c.n_markers))
    i0 = 7
    x_i = c.markers()[i0]
    t_i = 2 * np.pi * i0 / lp.n

    def integrand(t):
        p = lp.evaluate(np.array([t]))[0]
        sp = np.linalg.norm(lp.evaluate(np.array([t]), 1)[0])
        return periodic_green_kernel(x_i, p) * sp

    val, _ = quad(
        integrand, t_i, t_i + 2 * np.pi, points=[t_i, t_i + 2 * np.pi],
        limit=500, epsabs=1e-13,
    )
    assert abs(s1[i0] - val) / abs(val) < 1e-8


def _reference_single_layer(curve):
    # cross blocks and off-diagonal entries: the kernel entry by entry; the
    # diagonal blocks: the Kress formula with its tables built here
    pts = curve.markers()
    z = pts[:, None, :] - pts[None, :, :]
    eye = np.eye(curve.n_markers, dtype=bool)
    z[eye] = 0.25  # dummy separation, diagonal blocks overwritten below
    ref = periodic_green_kernel(z)
    r0 = green_regular_origin()
    for lp, sl in zip(curve.components, curve.loop_slices()):
        n = lp.n
        t = 2 * np.pi * np.arange(n) / n
        dt = t[:, None] - t[None, :]
        off = ~np.eye(n, dtype=bool)
        logpart = np.zeros((n, n))
        logpart[off] = np.log(4 * np.sin(0.5 * dt[off]) ** 2)
        smooth = ref[sl, sl] + logpart / (4 * np.pi)
        np.fill_diagonal(smooth, -np.log(lp.speed()) / (2 * np.pi) + r0)
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        kress = _kress_log_weights(n)[idx] * (n / (2 * np.pi))
        ref[sl, sl] = -kress / (4 * np.pi) + smooth
    return ref


@pytest.mark.parametrize(
    "curve",
    [
        shapes.perturbed_strip(0.3, 0.05, 2, n=96, which="both"),
        shapes.lamella(3, n_per_loop=64),
        # pairs wrap in both x and y across the cell corner
        shapes.circle(0.2, center=(0.01, 0.99), n=256),
        shapes.lamella(4, n_per_loop=64),
    ],
    ids=["perturbed_strip", "lamella3", "corner_circle", "lamella4"],
)
def test_single_layer_matches_reference(curve):
    assert np.abs(assemble_single_layer(curve) - _reference_single_layer(curve)).max() < 1e-13


def test_diagonal_block_tables_read_only():
    iu, ju, table = _diagonal_block_tables(96)
    assert table.shape == (96, 96)
    for arr in (iu, ju, table):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_refinement_consistency():
    vals = []
    for n in (128, 256):
        c = shapes.perturbed_circle(0.2, 0.01, 3, n=n)
        th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
        s = _single_layer(c, assemble_single_layer(c), np.cos(2 * th))
        vals.append(s[0])  # marker 0 sits at theta=0 for both resolutions
    assert abs(vals[0] - vals[1]) < 1e-10


# -- jump solve -------------------------------------------------------------------


def test_constant_data_gives_zero_jump(circle_op):
    c, kernel = circle_op
    sigma, const, _ = solve_jump(c, np.full(c.n_markers, 3.7), kernel)
    assert np.abs(sigma).max() < 1e-9
    assert const == pytest.approx(3.7, abs=1e-9)


def test_jump_solution_reports_rcond(circle_op):
    c, kernel = circle_op
    g = np.cos(2 * np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5))
    assert solve_jump(c, g, kernel)[2] > 1e-12


def test_circle_stationary_at_gamma_zero(circle_op):
    c, kernel = circle_op
    jump, dissipation = _jump(c, curvature(c), kernel)
    assert np.abs(jump).max() < 1e-8
    assert dissipation < 1e-12


def test_strip_fourier_oracle():
    h, k = 0.3, 2
    st = shapes.strip(h, n=256)
    sl = st.loop_slices()
    x = st.markers()[:, 0]
    g = np.zeros(st.n_markers)
    g[sl[1]] = np.cos(2 * np.pi * k * x[sl[1]])
    jump, _ = _jump(st, g)
    jb, jt = oracles.strip_jump(k, h, 0.0, 1.0)
    scale = abs(jt)
    assert np.abs(jump[sl[1]] - jt * np.cos(2 * np.pi * k * x[sl[1]])).max() < 1e-6 * scale
    assert np.abs(jump[sl[0]] - jb * np.cos(2 * np.pi * k * x[sl[0]])).max() < 1e-6 * scale


def test_jump_relations_and_mean(circle_op):
    c, kernel = circle_op
    th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
    jump, _ = _jump(c, np.cos(3 * th) + 0.2 * np.sin(th), kernel)
    assert abs(integrate_ds(c, jump)) < 1e-10 * np.abs(jump).max()


def test_energy_pairing_positive_and_selfadjoint():
    st = shapes.strip(0.4, n=128)
    rng = np.random.default_rng(11)

    def smooth(v):
        for sl in st.loop_slices():
            co = np.fft.fft(v[sl])
            co[10:-10] = 0
            v[sl] = np.fft.ifft(co).real
        return v

    g1 = smooth(rng.normal(size=st.n_markers))
    g2 = smooth(rng.normal(size=st.n_markers))
    (j1, d1), (j2, _) = _jump(st, g1), _jump(st, g2)
    assert d1 >= -1e-10
    a12 = integrate_ds(st, g1 * j2)
    a21 = integrate_ds(st, g2 * j1)
    assert abs(a12 - a21) / max(abs(a12), 1e-15) < 1e-9


def test_jump_spectral_refinement():
    # self-convergence against the finest level: >= 10x per marker doubling
    # (markers nest across doublings because the arclength anchor is shared)
    vals = {}
    for n in (32, 64, 128, 256):
        c = shapes.perturbed_circle(0.2, 0.02, 3, n=n)
        vals[n], _ = _jump(c, curvature(c))
    errs = [np.abs(vals[n] - vals[256][:: 256 // n]).max() for n in (32, 64, 128)]
    assert errs[0] / max(errs[1], 1e-13) > 10
    assert errs[1] / max(errs[2], 1e-13) > 10 or errs[2] < 1e-9


def test_perturbed_lamella_dispersion():
    # linearized MS velocity of a single perturbed interface matches the
    # 2x2 strip mode system to a few percent at eps = 1e-4
    h, k, eps = 0.5, 1, 1e-4
    st = shapes.perturbed_strip(h, eps, k, n=256, which="top")
    V, _ = _jump(st, curvature(st))
    x = st.markers()[:, 0]
    sl = st.loop_slices()
    amp_top = 2 * np.mean(V[sl[1]] * np.sin(2 * np.pi * k * x[sl[1]]))
    amp_bot = 2 * np.mean(V[sl[0]] * np.sin(2 * np.pi * k * x[sl[0]]))
    q = 2 * np.pi * k
    a = 1 / np.tanh(q * h) + 1 / np.tanh(q * (1 - h))
    b = 1 / np.sinh(q * h) + 1 / np.sinh(q * (1 - h))
    # psi-coordinates: d/dt (top, bottom) = -q^3 [[a, -b], [-b, a]] (top, bottom)
    assert amp_top == pytest.approx(-(q**3) * a * eps, rel=2e-2)
    assert amp_bot == pytest.approx(q**3 * b * eps, rel=2e-2)


def test_dissipation_quadratic_in_eps():
    vals = []
    for eps in (2e-4, 1e-4):
        st = shapes.perturbed_strip(0.5, eps, 1, n=128)
        vals.append(_jump(st, curvature(st))[1])
    assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.05)


def test_dissipation_cross_check_with_grid():
    # grid reconstruction of w through the line potential of the density
    from grid_reference import line_measure_potential
    from torusflow.fields import dirichlet_energy

    st = shapes.perturbed_strip(0.5, 1e-2, 1, n=256)
    jump, dissipation = _jump(st, curvature(st))
    vw = line_measure_potential(st, -jump, n=512)
    assert dirichlet_energy(vw) == pytest.approx(dissipation, rel=1e-2)


def test_potential_normal_derivative_identity():
    st = shapes.strip(0.3, n=128)
    dnv = Evaluation(st, "ms").potential_derivative
    np.testing.assert_allclose(dnv, oracles.strip_normal_derivative(0.3), atol=1e-12)
