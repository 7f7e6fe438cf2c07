"""Torus curve representation: resampling, curvature, areas, heights."""

import inspect
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from geometry_reference import (
    area_scanline_lens,
    check_intersections_all_pairs,
    evaluate_dense,
    height_function_dense,
)
from torusflow import geometry, shapes
from torusflow.errors import GraphFailure, OrientationError, ResolutionError, TopologyError
from torusflow.fields import signed_distance_grid
from torusflow.flow import FlowParams, StoppingMonitor, make_state, run
from torusflow.geometry import (
    RESAMPLE_TAIL_MAX,
    MarkerLoop,
    PeriodicCurve,
    apply_symbol,
    arclength_derivative,
    curvature,
    enclosed_area,
    height_function,
    integrate_ds,
    perimeter,
    read_snapshot,
    resample_equal_arclength,
    signed_distance_points,
    spectral_factor,
    surface_laplacian,
    write_snapshot,
)


def irregular_circle(r=0.2, n=64, wobble=0.25):
    jj = 2 * np.pi * np.arange(n) / n
    th = jj + wobble * np.sin(3 * jj)
    pts = np.column_stack([0.5 + r * np.cos(th), 0.5 + r * np.sin(th)])
    return PeriodicCurve([MarkerLoop(pts, (0, 0))])


# -- resample -----------------------------------------------------------------


def test_resample_circle_uniform_spacing():
    out = resample_equal_arclength(irregular_circle(), 128)
    w = out.arclength_weights()
    assert (w.max() - w.min()) / w.mean() < 1e-10
    np.testing.assert_allclose(w.mean(), 2 * np.pi * 0.2 / 128, rtol=1e-8)


def test_resample_flat_line():
    out = resample_equal_arclength(shapes.strip(0.3, n=48), 64)
    m = out.components[0].markers
    np.testing.assert_allclose(np.sort(m[:, 0]), np.arange(64) / 64, atol=1e-12)
    np.testing.assert_allclose(m[:, 1], 0.0, atol=1e-12)


def test_resample_preserves_area():
    c = shapes.perturbed_circle(0.2, 0.01, 3, n=256)
    a0 = enclosed_area(c)
    c2 = resample_equal_arclength(c, 256)
    assert abs(enclosed_area(c2) - a0) / a0 < 1e-10


def test_resample_rejects_under_resolved_loop():
    # kappa h ~ 1 at the tips: resampling would move the area by 1.6e-6
    c = shapes.ellipse(0.25, 0.0625, center=(0, 0.5), n=64)
    assert c.components[0].spectral_tail() > RESAMPLE_TAIL_MAX
    with pytest.raises(ResolutionError, match="under-resolved"):
        resample_equal_arclength(c, 65)


def test_marker_loop_coefficients_cached_read_only():
    lp = irregular_circle().components[0]
    assert lp._coeffs is lp._coeffs
    with pytest.raises(ValueError):
        lp._coeffs[1, 0] = 0.0
    assert lp.derivative(1) is lp.derivative(1)
    with pytest.raises(ValueError):
        lp.derivative(1)[0, 0] = 0.0
    with pytest.raises(ValueError):
        spectral_factor(64, 1)[1] = 0.0


def _trig_poly(n, amps, order):
    """Samples of sum a cos(k alpha) + b sin(k alpha) over amps {k: (a, b)} at n
    markers, and of its exact derivative of `order` (-1: zero-mean
    antiderivative); the Nyquist mode k = n/2 is kept only in even orders."""
    alpha = 2.0 * np.pi * np.arange(n) / n
    f = sum(a * np.cos(k * alpha) + b * np.sin(k * alpha) for k, (a, b) in amps.items())
    d = np.zeros(n)
    for k, (a, b) in amps.items():
        if k == 0 or (2 * k == n and order % 2):
            continue
        phase = k * alpha + order * np.pi / 2
        d += float(k) ** order * (a * np.cos(phase) + b * np.sin(phase))
    return f, d


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("order", [1, 2, 3, -1])
def test_spectral_derivatives_on_trig_polynomials(n, order):
    amps = [
        {0: (0.7, 0.0), 1: (0.3, -0.2), 5: (0.05, 0.1), 20: (1e-3, 2e-3), 32: (0.02, 0.0)},
        {0: (-0.1, 0.0), 2: (0.4, 0.1), 9: (0.0, 0.03), 31: (1e-3, -1e-3), 32: (-0.01, 0.0)},
    ]
    cols = [_trig_poly(n, a, order) for a in amps]
    f = np.column_stack([c[0] for c in cols])
    expect = np.column_stack([c[1] for c in cols])
    scale = max(1.0, np.abs(expect).max())
    for vals, want in ((f, expect), (f[:, 0], expect[:, 0])):  # (n, 2) and 1-D layouts
        assert np.abs(apply_symbol(vals, spectral_factor(n, order)) - want).max() <= 1e-13 * scale


def _wobbly_strip(n, zigzag=0.0):
    """Winding strip loop on a non-uniform parameter; `zigzag` adds the Nyquist
    mode (-1)^j to the heights of an even n."""
    t = np.arange(n) / n
    y = 0.3 + 0.02 * np.sin(2 * np.pi * t) + zigzag * np.cos(np.pi * n * t)
    return MarkerLoop(np.column_stack([t + 0.05 * np.sin(2 * np.pi * t), y]), (1, 0))


def _wobbly_circle(n):
    jj = 2 * np.pi * np.arange(n) / n
    th = jj + 0.1 * np.sin(jj)
    return MarkerLoop(np.column_stack([0.5 + 0.2 * np.cos(th), 0.5 + 0.2 * np.sin(th)]))


@pytest.mark.parametrize(
    "loop",
    [_wobbly_strip(64), _wobbly_strip(65), _wobbly_strip(64, 1e-3), _wobbly_circle(64),
     _wobbly_circle(65)],
    ids=["strip_64", "strip_65", "strip_nyquist_64", "circle_64", "circle_65"],
)
def test_evaluate_matches_dense_reference(loop):
    # loops resolved to round-off: on an unresolved loop the k^2 of order 2
    # amplifies the ~1e-17 rounding of every FFT coefficient in either evaluator
    alphas = np.random.default_rng(7).uniform(-3.0, 10.0, 40)
    for order in (0, 1, 2):
        out = loop.evaluate(alphas, order)
        assert np.abs(out - evaluate_dense(loop, alphas, order)).max() <= 1e-14


def test_resample_idempotent():
    c = resample_equal_arclength(irregular_circle(), 128)
    c2 = resample_equal_arclength(c, 128)
    assert np.abs(c2.lifts() - c.lifts()).max() < 1e-12


def test_resample_rejects_self_intersection():
    # non-monotone reparametrization makes the marker polygon backtrack
    with pytest.raises(TopologyError):
        irregular_circle(wobble=0.45)


def test_resample_too_few_markers():
    with pytest.raises(ResolutionError):
        resample_equal_arclength(irregular_circle(), 8)


# -- curvature ----------------------------------------------------------------


def test_curvature_circle():
    c = shapes.circle(0.25, n=256)
    np.testing.assert_allclose(curvature(c), 4.0, atol=1e-8)


def test_curvature_lamella_zero():
    assert np.abs(curvature(shapes.strip(0.3, n=64))).max() < 1e-12


def test_curvature_graph_oracle():
    eps = 1e-3
    base = shapes.strip(0.5, n=256)
    x = base.markers()[:, 0]
    sl = base.loop_slices()
    psi = np.zeros(base.n_markers)
    psi[sl[1]] = eps * np.sin(2 * np.pi * x[sl[1]])
    pert = shapes.graph_over(base, psi)
    xx = pert.markers()[sl[1], 0]
    expected = eps * (2 * np.pi) ** 2 * np.sin(2 * np.pi * xx)
    err = np.abs(curvature(pert)[sl[1]] - expected).max()
    assert err < 20 * eps**2  # O(eps^2) remainder


def test_curvature_complement_sign():
    c = shapes.circle(0.2, n=128, phase="outside")
    np.testing.assert_allclose(curvature(c), -5.0, atol=1e-8)


# -- derivatives ---------------------------------------------------------------


def test_surface_laplacian_constant():
    c = shapes.circle(0.2, n=128)
    out = surface_laplacian(c, np.full(128, 3.3))
    assert np.abs(out).max() < 1e-9


def test_surface_laplacian_circle_eigenfunction():
    r, k = 0.25, 4
    c = shapes.circle(r, n=256)
    th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
    f = np.cos(k * th)
    out = surface_laplacian(c, f)
    np.testing.assert_allclose(out, -((k / r) ** 2) * f, atol=1e-8 * (k / r) ** 2)


def test_derivative_lamella_mode():
    c = shapes.strip(0.3, n=128)
    x = c.markers()[:, 0]
    k = 3
    f = np.sin(2 * np.pi * k * x)
    lap = surface_laplacian(c, f)
    np.testing.assert_allclose(lap, -((2 * np.pi * k) ** 2) * f, atol=1e-7)
    # first derivative: d/ds picks a sign from the travel direction
    d = arclength_derivative(c, f)
    sl = c.loop_slices()
    expect = 2 * np.pi * k * np.cos(2 * np.pi * k * x)
    np.testing.assert_allclose(d[sl[0]], expect[sl[0]], atol=1e-8 * 2 * np.pi * k)
    np.testing.assert_allclose(d[sl[1]], -expect[sl[1]], atol=1e-8 * 2 * np.pi * k)


def test_arclength_derivative_constant():
    c = shapes.circle(0.2, n=64)
    out = arclength_derivative(c, np.full(64, 1.7))
    assert np.abs(out).max() < 1e-10


def test_integration_by_parts():
    c = shapes.perturbed_circle(0.2, 0.01, 3, n=128)
    th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
    f = np.cos(2 * th) + 0.3 * np.sin(th)
    g = np.sin(2 * th) + 0.5 * np.cos(th) + 0.1
    lhs = integrate_ds(c, surface_laplacian(c, f) * g)
    rhs = -integrate_ds(
        c,
        arclength_derivative(c, f)
        * arclength_derivative(c, g),
    )
    assert abs(lhs - rhs) / abs(rhs) < 1e-9


# -- perimeter and area ---------------------------------------------------------


def test_perimeter_values():
    np.testing.assert_allclose(perimeter(shapes.circle(0.2, n=128)), 0.4 * np.pi, rtol=1e-12)
    np.testing.assert_allclose(perimeter(shapes.strip(0.3, n=64)), 2.0, rtol=1e-12)
    e = shapes.ellipse(0.2, 0.1, n=256)
    np.testing.assert_allclose(perimeter(e), oracles.ellipse_perimeter(0.2, 0.1), rtol=1e-8)


@pytest.mark.parametrize(
    "curve,expect",
    [
        (shapes.circle(0.2, n=96), np.pi * 0.04),
        (shapes.circle(0.2, n=96, phase="outside"), 1 - np.pi * 0.04),
        (shapes.strip(0.3, n=48), 0.3),
        (shapes.strip(0.3, angle=90, n=48), 0.3),
        (shapes.strip(0.3, angle=45, n=48), 0.3),
        (shapes.lamella(3, 0.4, 48), 0.4),
    ],
)
def test_enclosed_area(curve, expect):
    np.testing.assert_allclose(enclosed_area(curve), expect, atol=1e-13)


def test_enclosed_area_computed_once_per_curve(monkeypatch):
    import torusflow.geometry as geometry

    loops = irregular_circle().components
    calls = []
    phase_area = geometry._phase_area

    def counting(curve):
        calls.append(curve)
        return phase_area(curve)

    monkeypatch.setattr(geometry, "_phase_area", counting)
    c = PeriodicCurve(loops, check=False)
    first = enclosed_area(c)
    assert enclosed_area(c) == first
    assert len(calls) == 1
    # a displaced curve is a new curve with its own area
    shifted = geometry.displace(c, np.full((c.n_markers, 2), 0.01))
    assert enclosed_area(shifted) == pytest.approx(first, abs=1e-14)
    assert len(calls) == 2


def test_area_perimeter_convergence_order():
    r, eps, k = 0.2, 0.01, 3
    a_exact = oracles.perturbed_circle_area(r, eps)
    p_exact = oracles.perturbed_circle_perimeter(r, eps, k)
    errs_a, errs_p = [], []
    for n in (24, 48, 96):
        c = shapes.perturbed_circle(r, eps, k, n=n)
        errs_a.append(abs(enclosed_area(c) - a_exact) + 1e-16)
        errs_p.append(abs(perimeter(c) - p_exact) + 1e-16)
    assert np.log2(errs_a[0] / errs_a[1]) > 4 or errs_a[1] < 1e-12
    assert np.log2(errs_p[0] / errs_p[1]) > 4 or errs_p[1] < 1e-12


def test_gauss_bonnet():
    c = shapes.perturbed_circle(0.2, 0.01, 3, n=128)
    total = integrate_ds(c, curvature(c))
    np.testing.assert_allclose(total, 2 * np.pi, rtol=1e-8)
    lam = shapes.strip(0.3, n=64)
    assert abs(integrate_ds(lam, curvature(lam))) < 1e-10


def test_orientation_error_nested_loops():
    # two nested same-orientation loops claim inconsistent phases
    inner = shapes.circle(0.1, n=64).components[0]
    outer = shapes.circle(0.3, n=64).components[0]
    with pytest.raises((OrientationError, TopologyError)):
        PeriodicCurve([outer, inner]).validate()


def test_orientation_error_unbalanced_winding():
    # two interfaces traveling the same way cannot bound a phase
    t = np.arange(32) / 32
    lo = MarkerLoop(np.column_stack([t, np.zeros(32)]), (1, 0))
    hi = MarkerLoop(np.column_stack([t, np.full(32, 0.4)]), (1, 0))
    with pytest.raises(OrientationError):
        PeriodicCurve([lo, hi]).validate()


# -- signed distance -------------------------------------------------------------


def test_signed_distance_circle():
    c = shapes.circle(0.2, n=256)
    g = signed_distance_grid(c, 64)
    assert abs(g[32, 32] + 0.2) < 1e-4
    on_boundary = signed_distance_points(c, np.array([[0.7, 0.5]]))
    assert abs(on_boundary[0]) < 1e-6


def test_signed_distance_strip_midgap():
    c = shapes.strip(0.3, n=64)
    d = signed_distance_points(c, np.array([[0.5, 0.65], [0.5, 0.15]]))
    np.testing.assert_allclose(d, [0.35, -0.15], atol=1e-12)


def test_signed_distance_grid_rejects_small():
    with pytest.raises(ResolutionError):
        signed_distance_grid(shapes.circle(0.2, n=64), 32)


# -- height function --------------------------------------------------------------


def test_height_trivial_and_offset():
    ref = shapes.circle(0.2, n=128)
    assert np.abs(height_function(ref, ref)).max() < 1e-12
    psi = height_function(shapes.circle(0.21, n=128), ref)
    np.testing.assert_allclose(psi, 0.01, atol=1e-10)


def test_height_lamella_mode():
    base = shapes.strip(0.3, n=128)
    x = base.markers()[:, 0]
    sl = base.loop_slices()
    p = np.zeros(base.n_markers)
    p[sl[1]] = 0.01 * np.sin(2 * np.pi * x[sl[1]])
    psi = height_function(shapes.graph_over(base, p), base)
    np.testing.assert_allclose(psi, p, atol=1e-10)


def test_height_graph_failure():
    ref = shapes.circle(0.2, n=128)
    with pytest.raises(GraphFailure):
        height_function(shapes.circle(0.2, center=(0.5, 0.85), n=128), ref)


def _two_loop_graph():
    base = shapes.strip(0.3, n=128)
    x = base.markers()[:, 0]
    p = 0.01 * np.sin(2 * np.pi * x) + 0.004 * np.cos(6 * np.pi * x)
    return shapes.graph_over(base, p), base


HEIGHT_CASES = {
    "circle": lambda: (shapes.circle(0.21, center=(0.48, 0.53), n=256), shapes.circle(0.2, n=256)),
    "ellipse": lambda: (shapes.ellipse(0.2, 0.125, n=256), shapes.ellipse(0.2, 0.12, n=256)),
    "perturbed_strip": lambda: (
        shapes.perturbed_strip(0.4, 1e-2, 2, n=96),
        shapes.strip(0.4, n=96),
    ),
    "lamella_k4": lambda: (
        shapes.perturbed_lamella(4, 3e-3, 2, n_per_loop=64),
        shapes.lamella(4, n_per_loop=64),
    ),
    "graph_over_two_loops": _two_loop_graph,
}


@pytest.mark.parametrize("case", sorted(HEIGHT_CASES))
def test_height_matches_dense_reference(case):
    curve, ref = HEIGHT_CASES[case]()
    psi = height_function(curve, ref)
    assert np.abs(psi - height_function_dense(curve, ref)).max() <= 1e-14
    assert np.abs(psi).max() > 1e-3  # a genuine height, not the trivial zero


@pytest.mark.parametrize(
    "curve,ref,message",
    [
        (shapes.circle(0.2, center=(0.5, 0.85), n=128), shapes.circle(0.2, n=128), "tangential ray"),
        (shapes.circle(0.3, n=128), shapes.circle(0.2, n=128), "height exceeds tubular radius"),
        (shapes.perturbed_circle(0.4, 0.01, 3, n=128), shapes.circle(0.2, n=128), "leaves the tubular"),
        (shapes.circle(0.2, n=128), shapes.strip(0.3, n=64), "component count differs"),
    ],
    ids=["shifted_circle", "beyond_tube", "beyond_twice_the_tube", "component_count"],
)
def test_height_graph_failure_branches(curve, ref, message):
    for solve in (height_function, height_function_dense):
        with pytest.raises(GraphFailure, match=message):
            solve(curve, ref)


def test_tubular_radius_once_per_reference(monkeypatch):
    # the reference never changes: its two per-loop distance queries run at
    # the first record only, not at every record of the monitored run
    calls = []
    inner = geometry.signed_distance_points

    def counting(curve, points):
        calls.append(len(curve.components))
        return inner(curve, points)

    monkeypatch.setattr(geometry, "signed_distance_points", counting)
    ref = shapes.strip(0.4, n=64)
    st = make_state(shapes.perturbed_strip(0.4, 2e-3, 1, n=64), "sd", params=FlowParams(dt=1e-6))
    res = run(st, monitor=StoppingMonitor(reference=ref), t_end=5e-6)
    assert res.event == "completed"
    assert len(res.trace.rows) == 6
    assert calls.count(1) == 2  # one-loop curves are the radius queries


# -- invariants (property tests) -------------------------------------------------

SHAPES = st.one_of(
    st.tuples(
        st.just("circle"), st.floats(0.05, 0.3), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
    ),
    st.tuples(
        st.just("ellipse"), st.floats(0.1, 0.25), st.floats(0.06, 0.2), st.floats(0.0, 1.0)
    ),
    st.tuples(
        st.just("strip"), st.floats(0.1, 0.8), st.floats(0.0, 1.0), st.sampled_from([0, 45, 90])
    ),
)
FEW = settings(max_examples=12, deadline=None)


def build(spec, n=64):
    kind, p, q, r = spec
    if kind == "circle":
        return shapes.circle(p, center=(q, r), n=n)
    if kind == "ellipse":
        return shapes.ellipse(p, q, center=(r, 0.5), n=n)
    return shapes.strip(p, offset=q, angle=r, n=n)


def rolled(lp, r):
    """The same loop with the marker index started at r (the lift stays continuous)."""
    return MarkerLoop(np.vstack([lp.lift[r:], lp.lift[:r] + lp.winding]), lp.winding)


@FEW
@given(SHAPES, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 63))
def test_area_perimeter_invariant_under_translation_and_roll(spec, i, j, r):
    c = build(spec)
    area, per = enclosed_area(c), perimeter(c)
    moved = PeriodicCurve([MarkerLoop(lp.lift + (i, j), lp.winding) for lp in c.components])
    turned = PeriodicCurve([rolled(lp, r) for lp in c.components])
    for other in (moved, turned):
        assert enclosed_area(other) == pytest.approx(area, abs=1e-12)
        assert perimeter(other) == pytest.approx(per, rel=1e-12)


@FEW
@given(SHAPES)
def test_complement_phase_has_area_one_minus_a(spec):
    c = build(spec)
    # reversing every loop puts the phase on the other side of the same interface
    comp = PeriodicCurve([MarkerLoop(lp.lift[::-1], -lp.winding) for lp in c.components])
    assert enclosed_area(comp) == pytest.approx(1.0 - enclosed_area(c), abs=1e-12)
    if spec[0] == "circle":
        out = shapes.circle(spec[1], center=spec[2:], n=64, phase="outside")
        assert enclosed_area(out) == pytest.approx(1.0 - enclosed_area(c), abs=1e-12)


@FEW
@given(SHAPES, st.integers(64, 160))
def test_resample_preserves_area_property(spec, n_new):
    # either the area is kept or the input is reported as under-resolved
    c = build(spec)
    try:
        out = resample_equal_arclength(c, n_new)
    except ResolutionError:
        return
    assert enclosed_area(out) == pytest.approx(enclosed_area(c), abs=1e-10)


@FEW
@given(SHAPES)
def test_snapshot_roundtrip_bit_exact(spec):
    # every shape, the winding strips at 0, 45 and 90 degrees included
    c = build(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.csv")
        write_snapshot(c, path)
        c2 = read_snapshot(path)
    assert np.array_equal(c.markers(), c2.markers())
    assert len(c2.components) == len(c.components)
    assert all(
        np.array_equal(a.winding, b.winding)
        for a, b in zip(c.components, c2.components)
    )


def phase_variants(curve, i, j, r, complement):
    """`curve` moved by the lattice vector (i, j), rolled by r markers and,
    with `complement`, reversed so the phase is the other side."""
    loops = [rolled(MarkerLoop(lp.lift + (i, j), lp.winding), r) for lp in curve.components]
    if complement:
        loops = [MarkerLoop(lp.lift[::-1], -lp.winding) for lp in loops]
    return PeriodicCurve(loops)


@settings(max_examples=40, deadline=None)
@given(SHAPES, st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 63), st.booleans())
def test_enclosed_area_matches_scanline_lens_reference(spec, i, j, r, complement):
    c = phase_variants(build(spec), i, j, r, complement)
    assert abs(enclosed_area(c) - area_scanline_lens(c)) <= 1e-13


@pytest.mark.parametrize(
    "curve",
    [
        shapes.strip(0.3, offset=0.6, angle=45, n=64),
        shapes.perturbed_lamella(2, 0.01, 3, h=0.4),
        # strips whose interface passes through the reference's base point (x0, y0)
        shapes.strip(0.3, offset=0.21370586327156, angle=90, n=64),
        shapes.strip(0.3, offset=0.34078604706783 - 0.21370586327156, angle=45, n=64),
    ],
    ids=["strip45", "perturbed_lamella", "strip90_through_base", "strip45_through_base"],
)
@pytest.mark.parametrize("i, j, r", [(0, 0, 0), (2, -3, 5), (-1, 1, 17)])
@pytest.mark.parametrize("complement", [False, True])
def test_enclosed_area_matches_reference_on_strips(curve, i, j, r, complement):
    c = phase_variants(curve, i, j, r, complement)
    assert abs(enclosed_area(c) - area_scanline_lens(c)) <= 1e-13


@pytest.mark.parametrize(
    "loops",
    [
        # a CCW disk beside a CW disk: inside one, outside the other
        [(0.1, (0.25, 0.5), "inside"), (0.15, (0.7, 0.5), "outside")],
        # nested disks traveled the same way
        [(0.3, (0.5, 0.5), "inside"), (0.1, (0.5, 0.5), "inside")],
        # small nested same-way disks, whose areas the 24^2 sampled probe missed
        [(0.05, (0.5, 0.5), "inside"), (0.02, (0.5, 0.5), "inside")],
        [(0.1, (0.5, 0.5), "inside"), (0.05, (0.5, 0.5), "inside")],
    ],
    ids=["ccw_beside_cw", "nested_same_way", "nested_0.05_0.02", "nested_0.1_0.05"],
)
def test_inconsistent_orientation_raises_on_the_reference_area(loops):
    c = PeriodicCurve(
        [shapes.circle(r, center, n=64, phase=ph).components[0] for r, center, ph in loops],
        check=False,
    )
    with pytest.raises(OrientationError):
        enclosed_area(c)


# the base point (x0, y0) of the phase area's column and row
X0, Y0 = (inspect.signature(geometry._phase_area).parameters[k].default for k in ("x0", "y0"))


def complement(curve):
    return PeriodicCurve([MarkerLoop(lp.lift[::-1], -lp.winding) for lp in curve.components])


@pytest.mark.parametrize("angle", [0, 45, 90])
@pytest.mark.parametrize("offset", [X0, Y0, Y0 - X0], ids=["x0", "y0", "y0-x0"])
@pytest.mark.parametrize("n", [64, 256])
def test_strip_through_the_base_point_has_its_area(angle, offset, n):
    # an interface through (x0, y0) or along a marker coordinate of it
    c = shapes.strip(0.3, offset=offset, angle=angle, n=n)
    assert enclosed_area(c) == pytest.approx(0.3, abs=1e-12)
    assert enclosed_area(complement(c)) == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("r", [0.1, 0.25])
def test_circle_through_the_base_point_has_its_area(side, r):
    # a marker of the circle sits on (x0, y0), at the circle's left or right end
    c = shapes.circle(r, center=(X0 + side * r, Y0), n=64)
    assert enclosed_area(c) == pytest.approx(np.pi * r * r, abs=1e-12)
    assert enclosed_area(complement(c)) == pytest.approx(1.0 - np.pi * r * r, abs=1e-12)


def test_flat_closed_loop_is_refused():
    # a closed loop at one height, traveled out and back, has no steep segment
    # for a row to cross, and its collinear segments never cross each other
    x = np.concatenate([np.linspace(0.1, 0.8, 16), np.linspace(0.75, 0.15, 15)])
    loop = MarkerLoop(np.column_stack([x, np.full(x.size, 0.5)]), (0, 0))
    with pytest.raises(TopologyError, match="vertical extent"):
        PeriodicCurve([loop])


def disk_pair(r1, c1, o1, r2, c2, o2, shift):
    phase = {1: "inside", -1: "outside"}
    loops = [
        MarkerLoop(shapes.circle(r, center, n=64, phase=phase[o]).components[0].lift + s, (0, 0))
        for r, center, o, s in ((r1, c1, o1, shift[:2]), (r2, c2, o2, shift[2:]))
    ]
    return PeriodicCurve(loops, check=False)


@settings(max_examples=60, deadline=None)
@given(
    st.booleans(),
    st.floats(0.03, 0.25),
    st.floats(0.2, 0.8),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
    st.tuples(*[st.integers(-2, 2)] * 4),
)
def test_orientation_check_matches_the_disk_oracle(nested, r1, q, c1, u, o1, o2, shift):
    # two disjoint disks bound a phase exactly when disks apart travel the
    # same way, or nested disks opposite ways
    if nested:
        r2 = q * (r1 - 0.02)
        room = r1 - r2 - 0.02
        c2 = (c1[0] + u[0] * room, c1[1] + u[1] * room)
        area, consistent = np.pi * (r1 * r1 - r2 * r2), o1 != o2
    else:
        r2 = q * 0.25
        assume(np.hypot(*u) > r1 + r2 + 0.02)
        c2 = (c1[0] + u[0], c1[1] + u[1])
        area, consistent = np.pi * (r1 * r1 + r2 * r2), o1 == o2
    c = disk_pair(r1, c1, o1, r2, c2, o2, np.array(shift, dtype=float))
    if not consistent:
        with pytest.raises(OrientationError):
            c.validate()
        return
    c.validate()
    assert enclosed_area(c) == pytest.approx(area if o1 == 1 else 1.0 - area, abs=1e-12)


def test_markers_fold_into_unit_cell():
    # marker 48 of this circle has the lift -4.6e-17, which np.mod sends to 1.0
    c = shapes.circle(0.25, center=(0, 0), n=64)
    assert c.components[0].lift[48, 0] < 0.0
    m = c.markers()
    assert np.all((m >= 0.0) & (m < 1.0))
    assert m[48, 0] == 0.0


@FEW
@given(SHAPES, st.integers(-3, 3), st.integers(-3, 3))
def test_markers_in_unit_cell_property(spec, i, j):
    c = build(spec)
    moved = PeriodicCurve([MarkerLoop(lp.lift + (i, j), lp.winding) for lp in c.components])
    for curve in (c, moved):
        m = curve.markers()
        assert np.all((m >= 0.0) & (m < 1.0))


# -- intersection test against the all-pairs reference ---------------------------


def verdict(check, curve):
    try:
        check(curve)
    except TopologyError:
        return "crossing"
    return "clear"


def both_verdicts(curve):
    """The cell-list verdict, checked equal to the all-pairs verdict."""
    fast = verdict(lambda c: c._check_intersections(), curve)
    assert fast == verdict(check_intersections_all_pairs, curve)
    return fast


def disk_loop(r, center, n, phase):
    th = phase + 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])
    return MarkerLoop(pts, (0, 0))


@FEW
@given(SHAPES, st.integers(16, 128))
def test_intersections_match_all_pairs_on_shapes(spec, n):
    assert both_verdicts(build(spec, n=n)) == "clear"


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.05, 0.2),
    st.floats(0.05, 0.2),
    st.floats(-4e-4, 4e-4),
    st.floats(0.0, 2 * np.pi),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(16, 96),
    st.floats(0.0, 1.0),
)
def test_intersections_match_all_pairs_near_touching_disks(r1, r2, gap, angle, c1, n, phase):
    # gaps straddle the contact of the two inscribed polygons; the pair sits
    # anywhere on the torus, so it often straddles the cell's edge
    d = r1 + r2 + gap
    c2 = (c1[0] + d * np.cos(angle), c1[1] + d * np.sin(angle))
    curve = PeriodicCurve(
        [disk_loop(r1, c1, n, phase), disk_loop(r2, c2, n + 3, 2 * phase)], check=False
    )
    both_verdicts(curve)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.02, 0.3),
    st.floats(-2e-3, 2e-3),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * np.pi),
    st.integers(16, 96),
)
def test_intersections_match_all_pairs_near_touching_strips(h, gap, y0, phase, n):
    # a straight interface at y0 and a wavy one whose trough reaches y0 + gap
    t = np.arange(n) / n
    x = 1.0 - t
    lower = MarkerLoop(np.column_stack([t, np.full(n, y0)]), (1, 0))
    wavy = y0 + h + (h - gap) * np.sin(2 * np.pi * x + phase)
    upper = MarkerLoop(np.column_stack([x, wavy]), (-1, 0))
    both_verdicts(PeriodicCurve([lower, upper], check=False))


@pytest.mark.parametrize("gap,expect", [(-1e-3, "crossing"), (1e-3, "clear")])
def test_intersections_near_contact_both_ways(gap, expect):
    # the near-contact properties above see both verdicts
    r = 0.1
    curve = PeriodicCurve(
        [disk_loop(r, (0.9, 0.5), 64, 0.0), disk_loop(r, (0.9 + 2 * r + gap, 0.5), 64, 0.0)],
        check=False,
    )
    assert both_verdicts(curve) == expect


@FEW
@given(st.floats(0.05, 0.3), st.floats(0.03, 0.2), st.floats(0.01, 0.5), st.integers(32, 128))
def test_self_crossing_loop_raises_in_both(a, b, phase, n):
    # a figure eight crosses itself at its centre
    t = 2 * np.pi * (np.arange(n) + phase) / n
    loop = MarkerLoop(np.column_stack([0.5 + a * np.sin(t), 0.5 + b * np.sin(2 * t)]), (0, 0))
    curve = PeriodicCurve([loop], check=False)
    assert both_verdicts(curve) == "crossing"
    with pytest.raises(TopologyError):
        curve.validate()


def test_validate_beyond_4096_segments():
    # 2 x 2100 markers: the all-pairs test refused this as beyond desk scale
    t = np.arange(2100) / 2100
    lower = MarkerLoop(np.column_stack([t, np.full(2100, 0.2)]), (1, 0))
    upper = MarkerLoop(np.column_stack([1.0 - t, np.full(2100, 0.6)]), (-1, 0))
    curve = PeriodicCurve([lower, upper], check=False)
    curve.validate()
    with pytest.raises(ResolutionError):
        check_intersections_all_pairs(curve)
