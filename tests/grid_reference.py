"""Grid route to the nonlocal terms of the second variation: a test-side oracle.

The package evaluates both gamma terms of the quadratic form through the Kress
single layer.  This module keeps an independent discretisation of the same
terms for the tests to compare against: line densities phi ds spread by a
Gaussian onto an n x n grid and deconvolved, their spectral Green potentials,
and d_nu v_E from the spectral gradient of the rasterized v_E.  It is first
order in 1/n where the single layer is spectral in the marker count.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from torusflow.fields import (
    _wavenumbers,
    dirichlet_energy,
    interpolate_grid,
    potential_of_set,
)
from torusflow.flow import Evaluation
from torusflow.geometry import integrate_ds, perimeter
from torusflow.variation import assemble_second_variation, second_variation_direct

log = logging.getLogger(__name__)


def neg_laplacian(field):
    """Spectral -Lap of a grid field (for residual checks)."""
    _, _, k2 = _wavenumbers(field.shape[0])
    return np.fft.ifft2(k2 * np.fft.fft2(field)).real


def gradient(field):
    kx, ky, _ = _wavenumbers(field.shape[0])
    fh = np.fft.fft2(field)
    gx = np.fft.ifft2(2j * np.pi * kx * fh).real
    gy = np.fft.ifft2(2j * np.pi * ky * fh).real
    return gx, gy


def normal_derivative(v, curve):
    """d_nu of a grid potential at the markers, from its spectral gradient."""
    markers = curve.markers()
    nu = curve.normals()
    gx, gy = gradient(v)
    dnv = (
        interpolate_grid(gx, markers) * nu[:, 0]
        + interpolate_grid(gy, markers) * nu[:, 1]
    )
    return dnv


def line_mode_coefficients(curve, phi, n=256, width=2.0, kcut_frac=0.25):
    """Fourier coefficients of the line measure phi*ds (Gaussian-spread, deconvolved).

    Gaussian spreading of width `width` grid cells, exact division by the
    window transfer function, spectrum truncated at kcut_frac*n.  Returns the
    coefficient array c(k) = integral phi exp(-2 pi i k.x) ds in fft layout.
    """
    vals = np.asarray(curve.require_samples(phi), dtype=float)
    w = curve.arclength_weights()
    h = 1.0 / n
    sigma = 0.5 * width * h
    half = int(np.ceil(6.0 * sigma * n))
    rho = np.zeros((n, n))
    pts = np.mod(curve.markers(), 1.0)
    base = np.floor(pts * n).astype(int)
    offs = np.arange(-half, half + 1)
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    amp = w * vals / (2.0 * np.pi * sigma**2)
    for j in range(pts.shape[0]):
        ix = np.mod(base[j, 0] + ox, n)
        iy = np.mod(base[j, 1] + oy, n)
        dx = (base[j, 0] + ox) * h - pts[j, 0]
        dy = (base[j, 1] + oy) * h - pts[j, 1]
        np.add.at(rho, (ix, iy), amp[j] * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2)))
    c = np.fft.fft2(rho) / n**2
    kx, ky, _ = _wavenumbers(n)
    transfer = np.exp(-2.0 * np.pi**2 * sigma**2 * (kx**2 + ky**2))
    mask = np.sqrt(kx**2 + ky**2) <= kcut_frac * n
    out = np.zeros_like(c)
    out[mask] = c[mask] / transfer[mask]
    return out


def line_measure_potential(curve, phi, n=256, width=2.0):
    """Potential v_phi of the zero-mean line density phi on the curve.

    The arclength mean of phi is projected out first (and reported) so the
    density matches the zero-mean Green function convention.
    """
    vals = np.array(curve.require_samples(phi), dtype=float)
    mean = integrate_ds(curve, vals) / perimeter(curve)
    if abs(mean) > 1e-13 * (1.0 + np.abs(vals).max()):
        log.info("line_measure_potential: projected out density mean %.3e", mean)
    vals = vals - mean
    c = line_mode_coefficients(curve, vals, n=n, width=width)
    k2 = _wavenumbers(n)[2].copy()
    k2[0, 0] = 1.0
    vh = c * n**2 / k2
    vh[0, 0] = 0.0
    return np.fft.ifft2(vh).real


def pair_energy(curve, phi_a, phi_b, n=256, width=2.0):
    """Double Green integral of two line densities via spectral polarization."""
    ca = line_mode_coefficients(curve, phi_a, n=n, width=width)
    cb = line_mode_coefficients(curve, phi_b, n=n, width=width)
    k2 = _wavenumbers(n)[2].copy()
    k2[0, 0] = 1.0
    ca = ca.copy()
    ca[0, 0] = 0.0
    return float(np.sum((ca * np.conj(cb)).real / k2))


def grid_nonlocal_parts(curve, basis, grid_n=256, delta_width=2.0):
    """(nonlocal_kernel_part, potential_part) over the basis columns, on the grid.

    The double Green integral of each column pair comes from the line-measure
    coefficients, int d_nu v_E B_i B_j ds from the rasterized v_E.
    """
    B = basis
    w = curve.arclength_weights()
    v, _ = potential_of_set(curve, n=grid_n)
    dnv = normal_derivative(v, curve)
    k2 = _wavenumbers(grid_n)[2].copy()
    k2[0, 0] = 1.0
    cols = []
    for jb in range(B.shape[1]):
        c = line_mode_coefficients(curve, B[:, jb], n=grid_n, width=delta_width)
        c[0, 0] = 0.0
        cols.append((c / np.sqrt(k2)).ravel())
    V = np.array(cols)
    nonlocal_part = (V @ V.conj().T).real
    pot = B.T @ ((w * dnv)[:, None] * B)
    return nonlocal_part, pot


def assemble_second_variation_grid(curve, gamma, n_modes=8, grid_n=256, delta_width=2.0):
    """The assembled form with both gamma parts replaced by their grid values."""
    mat = assemble_second_variation(curve, gamma, n_modes=n_modes)
    nonlocal_part, pot = grid_nonlocal_parts(curve, mat.basis, grid_n, delta_width)
    return replace(mat, nonlocal_kernel_part=nonlocal_part, potential_part=pot)


def second_variation_direct_grid(curve, gamma, phi, grid_n=256):
    """Q[phi] with both gamma terms from the grid route (line-measure potential
    plus the rasterized v_E's normal derivative)."""
    vals = np.asarray(curve.require_samples(phi), dtype=float)
    out = second_variation_direct(Evaluation(curve, "ms"), vals)
    if gamma != 0.0:
        w = curve.arclength_weights()
        vphi = line_measure_potential(curve, vals, n=grid_n)
        nl = dirichlet_energy(vphi)
        v, _ = potential_of_set(curve, n=grid_n)
        dnv = normal_derivative(v, curve)
        out += 8.0 * gamma * nl
        out += 4.0 * gamma * float(np.sum(w * dnv * vals**2))
    return out
