"""Second-variation assembly, spectra, translation handling, thresholds."""

import warnings

import numpy as np
import pytest

import oracles
from grid_reference import (
    assemble_second_variation_grid,
    grid_nonlocal_parts,
    second_variation_direct_grid,
)
from torusflow import shapes
from torusflow.flow import Evaluation
from torusflow.geometry import PeriodicCurve, arclength_derivative, integrate_ds
from torusflow.variation import (
    assemble_second_variation,
    criticality_residual,
    geometric_poincare_ratio,
    lamella_threshold,
    min_translation_distance,
    second_variation_direct,
    spectrum,
    translation_basis,
)
from variation_reference import assemble_second_variation_dense, spectrum_dense


@pytest.fixture(scope="module")
def circle_spectrum():
    c = shapes.circle(0.2, n=128)
    mat = assemble_second_variation(c, 0.0, n_modes=8)
    return c, mat, spectrum(mat)


# -- criticality -----------------------------------------------------------------


def test_circle_critical_gamma_zero():
    res, lam = criticality_residual(shapes.circle(0.2, n=128), 0.0)
    assert np.abs(res).max() < 1e-8
    assert lam == pytest.approx(5.0, rel=1e-10)


def test_strip_critical_any_gamma():
    res, lam = criticality_residual(shapes.strip(0.3, n=128), 1.0)
    assert np.abs(res).max() < 1e-6
    assert lam == pytest.approx(4.0 * oracles.strip_boundary_potential(0.3), rel=1e-2)


@pytest.mark.parametrize("gamma", [10.0, 150.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lamellae_critical_at_positive_gamma(k, gamma):
    # the grid-free v_E has no grid floor: every lamella is critical to
    # round-off, so its assembly raises no "not critical" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = assemble_second_variation(shapes.lamella(k, h=0.5, n_per_loop=64), gamma, n_modes=6)
    assert mat.warning == ""
    assert mat.criticality_sup <= 1e-10


def test_ellipse_not_critical():
    e = shapes.ellipse(0.2, 0.1, n=128)
    res, _ = criticality_residual(e, 0.0)
    from torusflow.geometry import curvature

    kap = curvature(e)
    assert np.abs(res).max() == pytest.approx(kap.max() - np.mean(kap), rel=0.2)
    assert np.abs(res).max() > 1.0


# -- translations ------------------------------------------------------------------


def test_translation_index_cases():
    assert len(translation_basis(shapes.circle(0.2, n=96))[1]) == 2
    assert len(translation_basis(shapes.strip(0.3, n=64))[1]) == 1
    assert len(translation_basis(shapes.strip(0.3, angle=45, n=64))[1]) == 1


def test_min_translation_distance_pythagoras():
    c = shapes.circle(0.2, n=128)
    th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
    assert min_translation_distance(np.cos(th), c) < 1e-10
    assert min_translation_distance(np.cos(2 * th), c) == pytest.approx(1.0, abs=1e-10)
    a, b = 2.0, 1.0
    nrm = np.sqrt(np.pi * 0.2)
    mix = a * np.cos(th) / nrm + b * np.cos(2 * th) / nrm
    assert min_translation_distance(mix, c) == pytest.approx(
        abs(b) / np.hypot(a, b), rel=1e-10
    )


# -- assembly ----------------------------------------------------------------------


def test_matrix_parts_symmetric_and_definite(circle_spectrum):
    _, mat, _ = circle_spectrum
    for part in (mat.local_part, mat.curvature_part, mat.nonlocal_kernel_part, mat.potential_part):
        assert np.abs(part - part.T).max() < 1e-10
    assert np.linalg.eigvalsh(mat.local_part).min() > -1e-10
    assert np.linalg.eigvalsh(mat.nonlocal_kernel_part).min() > -1e-10


def test_assembly_computes_curvature_once(monkeypatch):
    # the evaluation's curvature serves the curvature part and the datum
    import sys

    from torusflow import geometry

    original, calls = geometry.curvature, []

    def counted(curve):
        calls.append(1)
        return original(curve)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "torusflow" and getattr(mod, "curvature", None) is original:
            monkeypatch.setattr(mod, "curvature", counted)
    assemble_second_variation(shapes.lamella(1, 0.5, 64), 10.0, n_modes=4)
    assert len(calls) == 1


def test_gamma_linearity():
    lam = shapes.lamella(1, 0.5, 64)
    mat = assemble_second_variation(lam, 2.5, n_modes=4)
    t0, t1, t25 = mat.total(0.0), mat.total(1.0), mat.total(2.5)
    assert np.abs(t25 - (t0 + 2.5 * (t1 - t0))).max() < 1e-10 * np.abs(t25).max()


def test_gamma_zero_is_local_plus_curvature(circle_spectrum):
    _, mat, _ = circle_spectrum
    assert np.abs(mat.total(0.0) - (mat.local_part + mat.curvature_part)).max() < 1e-14


def test_circle_diagonal_rayleigh(circle_spectrum):
    # diagonal entries per unit L2 norm reproduce (k^2-1)/r^2
    _, mat, _ = circle_spectrum
    A = mat.total(0.0)
    M = mat.gram
    for j, lab in enumerate(mat.labels):
        if lab[1] in ("cos", "sin") and lab[2] <= 4:
            assert A[j, j] / M[j, j] == pytest.approx(
                oracles.circle_rayleigh(lab[2], 0.2), rel=1e-8
            )


def test_quadratic_form_consistency_grid_route():
    # assembled (Kress) values against the independent grid double-quadrature
    st = shapes.strip(0.3, n=128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mk = assemble_second_variation(st, 1.0, n_modes=4)
        mg = assemble_second_variation_grid(st, 1.0, n_modes=4)
    scale = np.abs(mk.total(1.0)).max()
    assert np.abs(mk.total(1.0) - mg.total(1.0)).max() / scale < 1e-4


@pytest.mark.parametrize(
    "curve",
    [shapes.strip(0.3, n=128), shapes.perturbed_circle(0.2, 0.01, 3, n=128)],
    ids=["strip", "perturbed_circle"],
)
def test_grid_parts_converge_to_kress(curve):
    # both gamma parts separately: their sum in total() cancels on translation
    # traces, so its grid error is not monotone in the grid size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mk = assemble_second_variation(curve, 1.0, n_modes=4)
    errs = []
    for n in (128, 256, 512):
        nl, pot = grid_nonlocal_parts(curve, mk.basis, grid_n=n)
        errs.append(
            max(
                np.abs(nl - mk.nonlocal_kernel_part).max()
                / np.abs(mk.nonlocal_kernel_part).max(),
                np.abs(pot - mk.potential_part).max() / np.abs(mk.potential_part).max(),
            )
        )
    assert errs[1] <= 0.6 * errs[0] and errs[2] <= 0.6 * errs[1], errs


def test_quadratic_form_random_phi_consistency():
    c = shapes.circle(0.2, n=128)
    rng = np.random.default_rng(7)
    mat = assemble_second_variation(c, 1.0, n_modes=4)
    nb = mat.basis.shape[1]
    y = rng.normal(size=nb) * 0.1
    y -= mat.means * (mat.means @ y) / (mat.means @ mat.means)
    phi = mat.basis @ y
    qf_matrix = float(y @ mat.total(1.0) @ y)
    # independent route: grid-based direct evaluation
    qf_grid = second_variation_direct_grid(c, 1.0, phi)
    assert abs(qf_matrix - qf_grid) / abs(qf_grid) < 1e-4


def test_translation_kernel(circle_spectrum):
    c, _, _ = circle_spectrum
    ev = Evaluation(c, "ms")
    tb, _ = translation_basis(c)
    for b in tb:
        q = second_variation_direct(ev, b)
        db = arclength_derivative(c, b)
        h1 = integrate_ds(c, b * b + db * db)
        assert abs(q) <= 1e-6 * h1
    st = shapes.strip(0.3, n=128)
    tb2, _ = translation_basis(st)
    ev2 = Evaluation(st, "ms", 1.0)
    for b in tb2:
        q = second_variation_direct(ev2, b)
        db = arclength_derivative(st, b)
        h1 = integrate_ds(st, b * b + db * db)
        assert abs(q) <= 1e-6 * h1


# -- spectrum ----------------------------------------------------------------------


def test_circle_spectrum_oracle(circle_spectrum):
    _, _, rep = circle_spectrum
    assert rep.gap_on_T_perp == pytest.approx(75.0, rel=1e-2)
    zeros = rep.eigenvalues[rep.translation_overlap > 0.99]
    assert len(zeros) == 2
    assert np.abs(zeros).max() < 1e-6
    assert rep.classification == "strictly_stable"


def test_lamella_spectrum_oracle():
    lam = shapes.lamella(1, 0.5, 64)
    rep = spectrum(assemble_second_variation(lam, 0.0, n_modes=6))
    assert rep.gap_on_T_perp == pytest.approx((2 * np.pi) ** 2, rel=1e-2)
    zeros = rep.eigenvalues[rep.translation_overlap > 0.99]
    assert len(zeros) == 1 and abs(zeros[0]) < 1e-6


def test_strip_gamma_modes_match_1d_oracle():
    # finite-mode eigenvalues at gamma=1 match the reduced 1D computation
    h, g = 0.3, 1.0
    st = shapes.strip(h, n=128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = spectrum(assemble_second_variation(st, g, n_modes=4))
    g0 = oracles.lamella_mode_coupling(1, 0.0)
    gh = oracles.lamella_mode_coupling(1, h)
    lo = (2 * np.pi) ** 2 + g * (8 * (g0 - gh) - 4 * h * (1 - h))
    hi = (2 * np.pi) ** 2 + g * (8 * (g0 + gh) - 4 * h * (1 - h))
    ev = np.sort(rep.eigenvalues)
    assert ev[1] == pytest.approx(lo, rel=1e-3)
    assert ev[3] == pytest.approx(hi, rel=1e-3)


def test_ellipse_negative_direction_with_warning():
    e = shapes.ellipse(0.2, 0.1, n=128)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        mat = assemble_second_variation(e, 0.0, n_modes=6)
        rep = spectrum(mat)
    assert any("not critical" in str(w.message) for w in wlist)
    assert rep.warning != ""
    assert rep.eigenvalues.min() < 0


def test_finite_difference_hessian_circle():
    # volume-corrected normal-graph second difference against the direct form
    from torusflow.geometry import enclosed_area, perimeter
    from torusflow.geometry import MarkerLoop, PeriodicCurve

    c = shapes.circle(0.2, n=256)
    th = np.arctan2(c.markers()[:, 1] - 0.5, c.markers()[:, 0] - 0.5)
    phi = np.cos(2 * th)
    target = enclosed_area(c)
    q_exact = second_variation_direct(Evaluation(c, "ms"), phi)

    def j_corrected(eps):
        cur = shapes.graph_over(c, eps * phi)
        for _ in range(4):
            delta = (target - enclosed_area(cur)) / perimeter(cur)
            nus = cur.normals()
            cur = PeriodicCurve(
                [
                    MarkerLoop(lp.lift + delta * nus[sl], lp.winding)
                    for lp, sl in zip(cur.components, cur.loop_slices())
                ],
                check=False,
            )
        return perimeter(cur)

    j0 = j_corrected(0.0)
    errs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        d2 = (j_corrected(eps) - 2 * j0 + j_corrected(-eps)) / eps**2
        errs.append(abs(d2 - q_exact))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.0
    assert errs[-1] / abs(q_exact) < 1e-3


# -- loop blocks against the dense reference ----------------------------------------


def _unequal_disks():
    # 128 and 16 markers: n_modes=8 truncates the small loop's basis at 2m < 16
    big = shapes.circle(0.15, (0.3, 0.3), n=128).components[0]
    small = shapes.circle(0.08, (0.75, 0.7), n=16).components[0]
    return PeriodicCurve([big, small])


REFERENCE_CASES = [
    *[
        pytest.param(lambda k=k: shapes.lamella(k, 0.5, 64), g, id=f"lamella{k}-g{g:g}")
        for k in (1, 2, 3, 4)
        for g in (10.0, 100.0)
    ],
    pytest.param(lambda: shapes.perturbed_circle(0.2, 0.01, 3, n=128), 1.0, id="perturbed_circle"),
    pytest.param(lambda: shapes.strip(0.3, angle=45, n=64), 10.0, id="strip45"),
    pytest.param(_unequal_disks, 1.0, id="unequal_n"),
]


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny)


@pytest.mark.parametrize("make, gamma", REFERENCE_CASES)
def test_loop_blocks_match_dense_reference(make, gamma):
    curve = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-critical curves warn on both routes
        mat = assemble_second_variation(curve, gamma, n_modes=8)
        ref = assemble_second_variation_dense(curve, gamma, n_modes=8)
    assert mat.labels == ref.labels and mat.warning == ref.warning
    for name in (
        "basis", "basis_derivative", "local_part", "curvature_part",
        "nonlocal_kernel_part", "potential_part", "gram", "means",
    ):
        assert _rel(getattr(mat, name), getattr(ref, name)) <= 1e-14, name
    rep, rref = spectrum(mat), spectrum_dense(ref)
    assert rep.classification == rref.classification
    assert rep.translation_index == rref.translation_index
    assert _rel(rep.eigenvalues, rref.eigenvalues) <= 1e-12
    # a backward-stable eigensolve moves every eigenvalue by ~eps * |A|: the
    # gap is compared on the scale of the spectrum, as the marginal band is
    scale = np.abs(rref.eigenvalues).max()
    assert abs(rep.gap_on_T_perp - rref.gap_on_T_perp) <= 1e-12 * scale
    assert _rel(rep.translation_overlap, rref.translation_overlap) <= 1e-12
    # eigenfunctions up to sign, where the eigenvalue is simple: in a
    # degenerate eigenspace the two routes may return different rotations
    ev = rref.eigenvalues
    sep = np.minimum(np.diff(ev, prepend=-np.inf), np.diff(ev, append=np.inf))
    simple = np.flatnonzero(sep > 1e-6 * max(1.0, scale))
    assert simple.size > 0
    for i in simple:
        f, g = rep.eigenvectors[:, i], rref.eigenvectors[:, i]
        assert min(np.abs(f - g).max(), np.abs(f + g).max()) <= 1e-8 * np.abs(g).max()


# -- geometric Poincare / thresholds ------------------------------------------------


def test_poincare_cases():
    assert geometric_poincare_ratio(shapes.circle(0.2, n=128)) == 0.0
    pert = shapes.perturbed_strip(0.5, 2.5e-3, 1, n=128)
    assert geometric_poincare_ratio(pert) == pytest.approx(1 / (2 * np.pi) ** 2, rel=2e-2)
    # piecewise-constant curvature with two distinct values: D_tau H = 0
    assert np.isinf(geometric_poincare_ratio(shapes.two_disks(0.1, 0.15)))


def test_lamella_threshold_demonstrates_transition():
    # measured threshold brackets the 1D-oracle instability point
    gstar = oracles.single_strip_gamma_star(0.5)
    cache = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        below = lamella_threshold(0.9 * gstar, k_max=3, cache=cache)
        above = lamella_threshold(1.3 * gstar, k_max=3, cache=cache)
    assert below == 1
    assert above is not None and above >= 2
