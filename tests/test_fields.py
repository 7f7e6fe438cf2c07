"""Grid fields: rasterization, spectral Poisson, and the test-side line-measure
potentials of grid_reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from grid_reference import (
    line_measure_potential,
    neg_laplacian,
    normal_derivative,
    pair_energy,
)
from torusflow import shapes
from torusflow.bie import potential_trace
from torusflow.errors import ResolutionError
from torusflow.fields import (
    _band_distances,
    _crossing_fill,
    dirichlet_energy,
    interpolate_grid,
    potential_of_set,
    rasterize_indicator,
    solve_poisson_zero_mean,
)
from torusflow.flow import Evaluation
from torusflow.geometry import (
    MarkerLoop,
    PeriodicCurve,
    _all_segments,
    integrate_ds,
    signed_distance_points,
)


def test_rasterize_strip_values_and_mean():
    st = shapes.strip(0.3, n=128)
    u = rasterize_indicator(st, 256)
    assert u[128, int(0.15 * 256)] == pytest.approx(1.0, abs=1e-12)
    assert u[128, int(0.65 * 256)] == pytest.approx(-1.0, abs=1e-12)
    assert abs(u.mean() - (2 * 0.3 - 1)) <= 2.0 / 256


def test_rasterize_shapes_mean():
    for curve, m in [
        (shapes.circle(0.2, n=128), 2 * np.pi * 0.04 - 1),
        (shapes.strip(0.3, angle=45, n=128), -0.4),
        (shapes.lamella(3, 0.4, 64), -0.2),
    ]:
        u = rasterize_indicator(curve, 256)
        assert abs(u.mean() - m) < 1e-3


def test_rasterize_rejects_small_grid():
    with pytest.raises(ResolutionError):
        rasterize_indicator(shapes.circle(0.2, n=128), 64)


def _nodes_near_markers(curve, n, radius):
    """Sorted flat indices of every node within `radius` of some marker
    (a square stencil per marker, so a superset)."""
    r = int(np.ceil(radius * n)) + 1
    base = np.floor(curve.markers() * n).astype(int)
    off = np.arange(-r, r + 1)
    ix = np.mod(base[:, 0, None] + off, n)
    iy = np.mod(base[:, 1, None] + off, n)
    return np.unique((ix[:, :, None] * n + iy[:, None, :]).ravel())


BAND_FIXTURES = {
    "corner_circle": lambda: shapes.circle(0.3, center=(0.02, 0.97), n=256),
    "two_disks": lambda: shapes.two_disks(c1=(0.03, 0.04)),
    "thin_ellipse": lambda: shapes.ellipse(0.25, 0.0625, center=(0.0, 0.5), n=128),
    "perturbed_strip": lambda: shapes.perturbed_strip(0.4, 0.02, 2, n=96),
    "lamella3": lambda: shapes.lamella(3, 0.5, n_per_loop=64),
}


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("name", sorted(BAND_FIXTURES))
def test_band_matches_brute_force_distance(name, n):
    # oracle: brute-force minimal-image distances to every segment at every
    # node that can lie within the cutoff (any point of a segment is within
    # half its length of a marker)
    curve = BAND_FIXTURES[name]()
    cutoff = 4.0 * 1.5 / n  # the band of rasterize_indicator's default width
    a, b = _all_segments(curve)
    half_seg = 0.5 * np.sqrt(np.sum((b - a) ** 2, axis=1)).max()
    cand = _nodes_near_markers(curve, n, cutoff + half_seg)
    ref = signed_distance_points(curve, np.column_stack([cand // n, cand % n]) / n)
    idx, d = _band_distances(curve, n, cutoff)
    ambiguous = cand[np.abs(np.abs(ref) - cutoff) <= 1e-12]
    np.testing.assert_array_equal(
        idx[~np.isin(idx, ambiguous)],
        cand[(np.abs(ref) <= cutoff) & ~np.isin(cand, ambiguous)],
    )
    assert np.all(np.isin(idx, cand))
    np.testing.assert_allclose(d, ref[np.searchsorted(cand, idx)], rtol=0, atol=1e-14)


# coarse thin ellipses: the nearest curve point of many nodes is a tip marker
# where the curve turns by more than 90 degrees, and the side of either segment
# at the tip is the wrong sign there
SHARP_TIPS = {
    "coarse_thin_ellipse": lambda: shapes.ellipse(0.2594, 0.0262, center=(0.3856, 0.5605), n=64),
    "needle_ellipse": lambda: shapes.ellipse(0.3, 0.01, n=64),
}


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize(
    "name", sorted(BAND_FIXTURES) + ["centred_thin_ellipse"] + sorted(SHARP_TIPS)
)
def test_fill_sign_matches_signed_distance(name, n):
    # every node off the curve gets the phase of the signed distance; the thin
    # ellipses' extreme markers sit on a node column, which a column-parity
    # fill gets wrong over the whole column
    if name == "centred_thin_ellipse":
        curve = shapes.ellipse(0.25, 0.0625, center=(0.5, 0.5), n=128)
    else:
        curve = {**BAND_FIXTURES, **SHARP_TIPS}[name]()
    xs = np.arange(n) / n
    nodes = np.column_stack([np.repeat(xs, n), np.tile(xs, n)])
    d = signed_distance_points(curve, nodes)
    sign = _crossing_fill(curve, n).ravel()
    off = np.abs(d) > 1e-12
    np.testing.assert_array_equal(sign[off], np.where(d[off] < 0, 1.0, -1.0))


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("name", sorted(BAND_FIXTURES) + sorted(SHARP_TIPS))
def test_band_sign_matches_fill(name, n):
    # the erf profile across the interface keeps the phase of the exact fill
    # at every band node off the curve
    curve = {**BAND_FIXTURES, **SHARP_TIPS}[name]()
    idx, d = _band_distances(curve, n, 4.0 * 1.5 / n)
    off = idx[np.abs(d) > 1e-12]
    u = rasterize_indicator(curve, n).ravel()
    np.testing.assert_array_equal(np.sign(u[off]), _crossing_fill(curve, n).ravel()[off])


def test_fill_of_a_curve_that_misses_every_node():
    # a thin ellipse inside one grid cell leaves every node in the larger
    # phase; a signed distance probe at a far node takes the wrong side of the
    # complement's sharp tip here
    n = 64
    inside = shapes.ellipse(0.04 / n, 0.4 / n, center=(0.5 + 0.5 / n, 0.5 + 0.5 / n), n=16)
    outside = PeriodicCurve([MarkerLoop(inside.components[0].lift[::-1], (0, 0))])
    assert np.all(_crossing_fill(inside, n) == -1.0)
    assert np.all(_crossing_fill(outside, n) == 1.0)


def test_package_import_leaves_out_scipy_spatial():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, torusflow.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_translation_equivariance():
    u1 = rasterize_indicator(shapes.strip(0.3, offset=0.0, n=128), 256)
    u2 = rasterize_indicator(shapes.strip(0.3, offset=32 / 256, n=128), 256)
    assert np.abs(np.roll(u1, 32, axis=1) - u2).max() < 1e-12


def test_poisson_single_mode():
    n = 128
    xs = np.arange(n) / n
    rhs = np.cos(2 * np.pi * xs)[:, None] * np.ones(n)[None, :]
    v = solve_poisson_zero_mean(rhs)
    expect = np.cos(2 * np.pi * xs)[:, None] / (4 * np.pi**2)
    assert np.abs(v - expect).max() < 1e-14
    assert abs(v.mean()) < 1e-15


def test_poisson_constant_rhs():
    v = solve_poisson_zero_mean(np.full((128, 128), 2.2))
    assert np.abs(v).max() < 1e-14


def test_poisson_residual():
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=(128, 128))
    v = solve_poisson_zero_mean(rhs)
    res = neg_laplacian(v) - (rhs - rhs.mean())
    assert np.abs(res).max() / np.abs(rhs).max() < 1e-10


def test_dirichlet_energy_parseval():
    n = 128
    xs = np.arange(n) / n
    v = np.cos(2 * np.pi * xs)[:, None] / (4 * np.pi**2) * np.ones(n)[None, :]
    assert dirichlet_energy(v) == pytest.approx(1 / (8 * np.pi**2), rel=1e-12)
    assert dirichlet_energy(np.full((64, 64), 3.0)) == 0.0


def test_strip_profile_matches_ode_oracle():
    h = 0.3
    v, _ = potential_of_set(shapes.strip(h, n=128), 256)
    yy = np.arange(256) / 256
    expect = oracles.strip_potential_profile(yy, h)
    assert np.abs(v[5, :] - expect).max() < 2e-4


def test_strip_energy_and_trace():
    h = 0.3
    st = shapes.strip(h, n=128)
    v, trace = potential_of_set(st, 256)
    assert dirichlet_energy(v) == pytest.approx(oracles.strip_dirichlet_energy(h), rel=1e-3)
    np.testing.assert_allclose(
        normal_derivative(v, st), oracles.strip_normal_derivative(h), rtol=2e-2
    )


def test_strip_energy_grid_convergence():
    h = 0.3
    exact = oracles.strip_dirichlet_energy(h)
    errs = []
    for n in (128, 256, 512):
        u = rasterize_indicator(shapes.strip(h, n=128), n)
        errs.append(abs(dirichlet_energy(solve_poisson_zero_mean(u)) - exact))
    # first order or better in 1/n
    assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


def test_strip_trace_grid_convergence():
    h = 0.3
    st = shapes.strip(h, n=128)
    exact = oracles.strip_potential_profile(st.markers()[:, 1], h)
    errs = []
    for n in (128, 256, 512):
        _, trace = potential_of_set(st, n)
        errs.append(np.abs(trace - exact).max())
    assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1], errs
    assert errs[2] < 1e-6, errs


@pytest.mark.parametrize(
    "curve",
    [
        shapes.perturbed_circle(0.2, 0.01, 3, n=128),
        shapes.perturbed_strip(0.4, 1e-2, 1, n=96),
    ],
    ids=["perturbed_circle", "perturbed_strip"],
)
def test_grid_normal_derivative_converges_to_kress(curve):
    # the grid's spectral gradient and the single-layer identity Dv_E = -2 S[nu]
    # are independent discretisations of d_nu v_E; the grid one is first order
    kress = Evaluation(curve, "ms").potential_derivative
    errs = []
    for n in (128, 256, 512):
        v, _ = potential_of_set(curve, n)
        errs.append(np.abs(normal_derivative(v, curve) - kress).max())
    assert errs[1] <= 0.6 * errs[0] and errs[2] <= 0.6 * errs[1], errs
    assert errs[2] < 2e-3, errs


@pytest.mark.parametrize(
    "curve",
    [
        shapes.perturbed_circle(0.2, 0.01, 3, n=128),
        shapes.perturbed_strip(0.4, 1e-2, 1, n=96),
    ],
    ids=["perturbed_circle", "perturbed_strip"],
)
def test_grid_trace_agrees_with_g2_trace(curve):
    # the rasterized potential and the grid-free trace (single layer plus one
    # biharmonic-Green row per loop) are independent routes to v_E; they agree
    # to the grid's floor once the global mean is removed
    ev = Evaluation(curve, "ms")
    trace = potential_trace(curve, ev.potential_gradient, ev.kappa)
    for n in (256, 512):
        _, grid = potential_of_set(curve, n)
        assert np.abs((grid - grid.mean()) - (trace - trace.mean())).max() <= 3e-6


def test_circle_trace_square_symmetry():
    c = shapes.circle(0.2, n=256)
    _, trace = potential_of_set(c, 256)
    tr = trace
    # quarter rotation maps the marker set to itself (n divisible by 4)
    quarter = np.roll(tr, 64)
    assert np.abs(tr - quarter).max() < 1e-8


def test_line_measure_two_delta_profile():
    h = 0.3
    st = shapes.strip(h, n=128)
    sl = st.loop_slices()
    phi = np.zeros(st.n_markers)
    phi[sl[1]] = 1.0
    phi[sl[0]] = -1.0
    v = line_measure_potential(st, phi, n=256)
    yy = np.arange(256) / 256
    expect = oracles.two_delta_profile(yy, h)
    # truncated spectrum of a piecewise-linear profile: small Gibbs at the kinks
    assert np.abs(v[7, :] - expect).max() < 1.5e-3


def test_line_measure_zero_density():
    st = shapes.strip(0.3, n=64)
    v = line_measure_potential(st, np.zeros(st.n_markers), n=256)
    assert np.abs(v).max() < 1e-14


def test_pair_energy_positive():
    c = shapes.perturbed_circle(0.2, 0.01, 3, n=128)
    th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
    phi = np.cos(2 * th)
    assert pair_energy(c, phi, phi, n=256) > 0


def test_green_reciprocity():
    td = shapes.two_disks(0.1, 0.15, (0.3, 0.3), (0.7, 0.65), 96)
    sl = td.loop_slices()
    a0 = 2 * np.pi * np.arange(96) / 96
    phi = np.zeros(td.n_markers)
    psi = np.zeros(td.n_markers)
    phi[sl[0]] = np.cos(a0) + 0.5 * np.sin(2 * a0)
    psi[sl[1]] = np.sin(a0) - 0.2 * np.cos(3 * a0)
    vphi = line_measure_potential(td, phi, n=256)
    vpsi = line_measure_potential(td, psi, n=256)
    a = integrate_ds(td, interpolate_grid(vphi, td.markers()) * psi)
    b = integrate_ds(td, interpolate_grid(vpsi, td.markers()) * phi)
    assert abs(a - b) / max(abs(a), 1e-30) < 1e-6


def test_interpolate_grid_bandlimited():
    n = 128
    xs = np.arange(n) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    f = np.cos(2 * np.pi * (3 * gx - 2 * gy)) + 0.5 * np.sin(2 * np.pi * gy)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (40, 2))
    exact = np.cos(2 * np.pi * (3 * pts[:, 0] - 2 * pts[:, 1])) + 0.5 * np.sin(
        2 * np.pi * pts[:, 1]
    )
    # the evaluation is the field's trigonometric interpolant: exact when band-limited
    got = interpolate_grid(f, pts)
    assert np.abs(got - exact).max() < 1e-12

