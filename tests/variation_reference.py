"""Dense second-variation kernels: test-side references for the assembly and
the spectrum.

The package assembles the quadratic form by loop blocks (each basis column
lives on one loop) and projects it onto the zero-mean subspace with one
Householder reflector of the column means.  This module keeps the earlier
dense versions for the tests to compare against: the basis is formed as full
markers x columns arrays, every part is a product over the full marker
dimension, and the zero-mean subspace is `scipy.linalg.null_space` of the
means, projected by two dense products.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import eigh

from torusflow.flow import Evaluation
from torusflow.variation import (
    CRIT_TOL,
    OVERLAP_THRESHOLD,
    STAB_TOL_REL,
    SecondVariationMatrix,
    SpectrumReport,
    translation_basis,
)


def mode_basis_dense(curve, n_modes):
    """Per-loop [1, cos(m a), sin(m a)] columns and their arclength derivatives."""
    cols, dcols, labels = [], [], []
    nm = curve.n_markers
    for li, lp in enumerate(curve.components):
        a = 2.0 * np.pi * np.arange(lp.n) / lp.n
        L = lp.length()
        sl_start = sum(l.n for l in curve.components[:li])
        sl = slice(sl_start, sl_start + lp.n)

        def put(vals, dvals, lab):
            col = np.zeros(nm)
            dcol = np.zeros(nm)
            col[sl] = vals
            dcol[sl] = dvals
            cols.append(col)
            dcols.append(dcol)
            labels.append((li,) + lab)

        put(np.ones(lp.n), np.zeros(lp.n), ("const",))
        for m in range(1, n_modes + 1):
            if 2 * m >= lp.n:
                break
            q = 2.0 * np.pi * m / L  # physical wavenumber on this loop
            put(np.cos(m * a), -q * np.sin(m * a), ("cos", m))
            put(np.sin(m * a), q * np.cos(m * a), ("sin", m))
    return np.array(cols).T, np.array(dcols).T, labels


def assemble_second_variation_dense(curve, gamma, n_modes=8):
    """Assemble the four matrices of the quadratic form over the Fourier basis.

    All curve data come from one MS `Evaluation`.  The nonlocal block and d_nu
    v_E both go through its single layer, so the two gamma terms cancel on
    translation traces to quadrature accuracy; the criticality residual's v_E
    comes from the same single layer and one biharmonic-Green row per loop.
    """
    ev = Evaluation(curve, "ms", gamma)
    B, dB, labels = mode_basis_dense(curve, n_modes)
    w = curve.arclength_weights()
    local = dB.T @ (w[:, None] * dB)
    curv = -B.T @ ((w * ev.kappa**2)[:, None] * B)
    res, lam = ev.criticality
    crit_sup = float(np.abs(res).max())
    warning = ""
    if crit_sup > CRIT_TOL * max(1.0, abs(lam)):
        warning = (
            f"curve is not critical (sup residual {crit_sup:.3e}); the assembled "
            "form omits the first-variation remainder and is diagnostic only"
        )
        warnings.warn(warning)
    WB = w[:, None] * B
    nonlocal_part = WB.T @ ev.operator.kernel @ WB
    nonlocal_part = 0.5 * (nonlocal_part + nonlocal_part.T)
    pot = B.T @ ((w * ev.potential_derivative)[:, None] * B)
    gram = B.T @ (w[:, None] * B)
    means = B.T @ w
    return SecondVariationMatrix(
        basis=B,
        basis_derivative=dB,
        labels=labels,
        blocks=None,  # the dense route reads no loop blocks
        local_part=local,
        curvature_part=curv,
        nonlocal_kernel_part=nonlocal_part,
        potential_part=pot,
        gamma=gamma,
        gram=gram,
        means=means,
        curve=curve,
        criticality_sup=crit_sup,
        warning=warning,
    )


def spectrum_dense(matrix):
    """Generalized eigensolve of the assembled form on the zero-mean subspace."""
    from scipy.linalg import null_space

    A = matrix.total()
    M = matrix.gram
    c = matrix.means
    Z = null_space(c[None, :])  # orthonormal basis of the zero-mean subspace
    evals, evecs = eigh(Z.T @ A @ Z, Z.T @ M @ Z)
    funcs = matrix.basis @ (Z @ evecs)
    curve = matrix.curve
    w = curve.arclength_weights()
    tbasis, index = translation_basis(curve)
    overlaps = np.zeros(evals.shape[0])
    for i in range(evals.shape[0]):
        f = funcs[:, i]
        nrm = float(np.sum(w * f * f))
        if nrm == 0:
            continue
        proj = sum(float(np.sum(w * f * b)) ** 2 for b in tbasis)
        overlaps[i] = proj / nrm
    scale = max(1.0, float(np.abs(evals).max()) if evals.size else 1.0)
    stab_tol = STAB_TOL_REL * scale
    non_trans = overlaps <= OVERLAP_THRESHOLD
    gap = float(evals[non_trans].min()) if np.any(non_trans) else np.inf
    if gap > stab_tol:
        cls = "strictly_stable"
    elif abs(gap) <= stab_tol:
        cls = "marginal"
    else:
        cls = "unstable"
    return SpectrumReport(
        eigenvalues=evals,
        eigenvectors=funcs,
        translation_overlap=overlaps,
        translation_index=index,
        gap_on_T_perp=gap,
        classification=cls,
        gamma=matrix.gamma,
        stab_tol=stab_tol,
        warning=matrix.warning,
    )
