"""Criticality residuals, the second-variation quadratic form, and spectra.

The quadratic form on zero-average normal perturbations phi of a critical
interface is assembled in four parts,

    Q[phi] = int |D_tau phi|^2  -  int kappa^2 phi^2
             + 8 gamma (double Green integral of phi)
             + 4 gamma int (d_nu v_E) phi^2,

over a per-loop Fourier basis with one global mean constraint.  Infinitesimal
translations eta.nu always lie in the kernel; the spectral gap is reported
after deflating them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, eigh

from .flow import Evaluation
from .geometry import arclength_derivative, perimeter
from . import shapes

CRIT_TOL = 1e-4  # sup residual above CRIT_TOL * max(1, |lambda|): not critical
TRANSLATION_REL_TOL = 1e-10  # trace norm, relative to the perimeter, of a kept translation
STAB_TOL_REL = 1e-6  # marginal band, relative to max(1, max |eigenvalue|)
OVERLAP_THRESHOLD = 0.99  # translation overlap above which a mode is left out of the gap
LAMELLA_K_MAX = 16  # largest strip count lamella_threshold scans (desk scale)


def criticality_residual(curve, gamma):
    """(residual, lambda) of H + 4 gamma v_E = lambda, lambda the arclength mean."""
    return Evaluation(curve, "ms", gamma).criticality


def translation_basis(curve):
    """L2-orthonormal basis of nonvanishing translation traces e_i . nu.

    Diagonalizes the 2x2 Gram matrix of (e_x.nu, e_y.nu); directions with
    norm below TRANSLATION_REL_TOL * perimeter are excluded.
    Returns (basis functions as rows, index list).
    """
    nu = curve.normals()
    w = curve.arclength_weights()
    gram = np.einsum("i,id,ie->de", w, nu, nu)
    evals, evecs = np.linalg.eigh(gram)
    per = perimeter(curve)
    norms = np.sqrt(np.maximum(evals, 0.0))
    index = [i for i in range(2) if norms[i] > TRANSLATION_REL_TOL * per]
    return (nu @ evecs[:, index] / norms[index]).T, index


# -- basis -----------------------------------------------------------------


def _mode_basis(curve, n_modes):
    """Per-loop [1, cos(m a), sin(m a)] columns and their arclength derivatives.

    Every column lives on one loop, so both arrays are block diagonal; the
    last return value lists each loop's (marker slice, column slice) block.
    """
    tables, dtables, labels, blocks = [], [], [], []
    for li, (lp, sl) in enumerate(zip(curve.components, curve.loop_slices())):
        m = np.arange(1, min(n_modes, (lp.n - 1) // 2) + 1)  # modes with 2m < n
        ma = np.outer(2.0 * np.pi * np.arange(lp.n) / lp.n, m)
        q = 2.0 * np.pi * m / lp.length()  # physical wavenumbers on this loop
        t = np.ones((lp.n, 1 + 2 * m.size))
        dt = np.zeros_like(t)
        t[:, 1::2], t[:, 2::2] = np.cos(ma), np.sin(ma)
        dt[:, 1::2], dt[:, 2::2] = -q * t[:, 2::2], q * t[:, 1::2]
        tables.append(t)
        dtables.append(dt)
        labels += [(li, "const")] + [(li, f, k) for k in m.tolist() for f in ("cos", "sin")]
        blocks.append((sl, slice(len(labels) - t.shape[1], len(labels))))
    return block_diag(*tables), block_diag(*dtables), labels, blocks


@dataclass
class SecondVariationMatrix:
    """Four-part assembly of the quadratic form over the mode basis."""

    basis: np.ndarray  # markers x n_basis, block diagonal by loop
    basis_derivative: np.ndarray
    labels: list
    blocks: list  # per loop: (marker slice, column slice) of its basis block
    local_part: np.ndarray
    curvature_part: np.ndarray
    nonlocal_kernel_part: np.ndarray
    potential_part: np.ndarray
    gamma: float
    gram: np.ndarray  # L2 Gram matrix of the basis
    means: np.ndarray  # arclength integrals of the basis columns
    curve: object = None
    criticality_sup: float = 0.0
    warning: str = ""

    def total(self, gamma=None):
        g = self.gamma if gamma is None else gamma
        return (
            self.local_part
            + self.curvature_part
            + 8.0 * g * self.nonlocal_kernel_part
            + 4.0 * g * self.potential_part
        )


def assemble_second_variation(curve, gamma, n_modes=8, grid_n=256):
    """Assemble the four matrices of the quadratic form over the Fourier basis.

    All curve data come from one MS `Evaluation`.  The nonlocal block and d_nu
    v_E both go through its single layer, so the two gamma terms cancel on
    translation traces to quadrature accuracy; the criticality residual's v_E
    comes from the same single layer and one biharmonic-Green row per loop.
    `grid_n` is accepted for the benchmark's calls and not read.
    """
    ev = Evaluation(curve, "ms", gamma)
    B, dB, labels, blocks = _mode_basis(curve, n_modes)
    w = curve.arclength_weights()
    res, lam = ev.criticality
    crit_sup = float(np.abs(res).max())
    warning = ""
    if crit_sup > CRIT_TOL * max(1.0, abs(lam)):
        warning = (
            f"curve is not critical (sup residual {crit_sup:.3e}); the assembled "
            "form omits the first-variation remainder and is diagnostic only"
        )
        warnings.warn(warning)

    def loop_form(left, right, weight):  # block-diagonal left^T diag(weight) right
        return block_diag(*(left[sl, cs].T @ (weight[sl, None] * right[sl, cs])
                            for sl, cs in blocks))

    local = loop_form(dB, dB, w)
    curv = -loop_form(B, B, w * ev.kappa**2)
    pot = loop_form(B, B, w * ev.potential_derivative)
    gram = loop_form(B, B, w)
    means = np.concatenate([B[sl, cs].T @ w[sl] for sl, cs in blocks])
    # loop-pair blocks of the symmetric kernel for i <= j, mirrored below the diagonal
    WB = [w[sl, None] * B[sl, cs] for sl, cs in blocks]
    K, n = ev.kernel, len(blocks)
    pair = {(i, j): WB[i].T @ K[blocks[i][0], blocks[j][0]] @ WB[j]
            for i, j in zip(*np.triu_indices(n))}
    nonlocal_part = np.block([[pair[i, j] if i <= j else pair[j, i].T for j in range(n)]
                              for i in range(n)])
    nonlocal_part = 0.5 * (nonlocal_part + nonlocal_part.T)
    return SecondVariationMatrix(
        basis=B,
        basis_derivative=dB,
        labels=labels,
        blocks=blocks,
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


@dataclass
class SpectrumReport:
    """Eigenpairs of the quadratic form on the zero-average space."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # marker-sampled eigenfunctions, column-aligned
    translation_overlap: np.ndarray
    translation_index: list
    gap_on_T_perp: float
    classification: str
    gamma: float
    stab_tol: float
    warning: str = ""

    def to_dict(self):
        return {
            "gamma": self.gamma,
            "eigenvalues": self.eigenvalues.tolist(),
            "translation_overlap": self.translation_overlap.tolist(),
            "translation_index": list(self.translation_index),
            "gap_on_T_perp": self.gap_on_T_perp,
            "classification": self.classification,
            "stab_tol": self.stab_tol,
            "warning": self.warning,
        }


def spectrum(matrix):
    """Generalized eigensolve of the assembled form on the zero-mean subspace.

    H = I - u u^T reflects the column means c onto -|c| e_1 (c is never zero:
    each loop's constant column integrates to its length), so the columns 1..
    of H span the zero-mean subspace; H A H and H M H are rank-2 updates.
    """
    u = matrix.means.copy()
    u[0] += np.linalg.norm(u)
    u *= np.sqrt(2.0) / np.linalg.norm(u)

    def reflect(A):  # H A H without row and column 0, A symmetric
        q = A @ u - 0.5 * (u @ A @ u) * u
        return (A - np.outer(u, q) - np.outer(q, u))[1:, 1:]

    evals, evecs = eigh(reflect(matrix.total()), reflect(matrix.gram))
    # basis coefficients H [0; evecs], then the eigenfunctions loop by loop
    coeffs = np.vstack([np.zeros(evals.size), evecs]) - np.outer(u, u[1:] @ evecs)
    funcs = np.vstack([matrix.basis[sl, cs] @ coeffs[cs] for sl, cs in matrix.blocks])
    w = matrix.curve.arclength_weights()
    tbasis, index = translation_basis(matrix.curve)
    nrm = w @ funcs**2
    proj = np.sum(((w * tbasis) @ funcs) ** 2, axis=0)
    overlaps = np.divide(proj, nrm, out=np.zeros_like(nrm), where=nrm != 0)
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


def second_variation_direct(ev, phi):
    """Direct evaluation of the quadratic form at `ev`'s curve and gamma on one
    sampled perturbation.

    Both gamma terms go through the evaluation's single layer, as in the
    assembly; at gamma = 0 it is not assembled.
    """
    curve = ev.curve
    vals = curve.require_samples(phi)
    w = curve.arclength_weights()
    dphi = arclength_derivative(curve, vals)
    out = float(np.sum(w * dphi**2) - np.sum(w * ev.kappa**2 * vals**2))
    if ev.gamma != 0.0:
        wphi = w * vals  # the nonlocal pairing: G integrated against phi twice
        out += 8.0 * ev.gamma * float(wphi @ (ev.kernel @ wphi))
        out += 4.0 * ev.gamma * float(np.sum(w * ev.potential_derivative * vals**2))
    return out


def lamella_threshold(gamma, k_max=8, h=0.5, n_per_loop=64, n_modes=6, cache=None):
    """Smallest strip count k in 1..k_max whose lamella is strictly stable, else None.

    The four assembled matrices are gamma-independent, so a dict passed as
    `cache` lets gamma sweeps reuse them across calls.
    """
    if k_max > LAMELLA_K_MAX:
        raise ValueError("k_max beyond desk scale")
    for k in range(1, k_max + 1):
        key = (k, h, n_per_loop, n_modes)
        mat = cache.get(key) if cache is not None else None
        if mat is None:
            curve = shapes.lamella(k, h=h, n_per_loop=n_per_loop)
            mat = assemble_second_variation(curve, gamma, n_modes=n_modes)
            if cache is not None:
                cache[key] = mat
        mat.gamma = gamma
        rep = spectrum(mat)
        if rep.classification == "strictly_stable":
            return k
    return None
