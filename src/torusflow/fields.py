"""Doubly periodic scalar fields on T^2 and the spectral Poisson machinery.

Grid convention: a field is an n x n float array sampling the nodes (i/n, j/n)
with the FIRST index along x.  The module is deliberately free of the coupling
constant gamma so potentials can be reused across gamma sweeps.  It is the only
grid code of the package and no other module imports it: the tests' grid oracle
for v_E, the signed distance grid and the asymmetry distance.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import erf

from .errors import ResolutionError
from .geometry import (
    _all_segments,
    _off_markers,
    _outward,
    _row_crossings,
    enclosed_area,
    signed_distance_points,
)

# The indicator's erf transition spans about this many grid cells.
INDICATOR_WIDTH = 1.5


@functools.lru_cache(maxsize=8)
def _wavenumbers(n):
    """(kx, ky, 4 pi^2 |k|^2) in fft layout, built once per n and read-only."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    tables = kx, ky, 4.0 * np.pi**2 * (kx**2 + ky**2)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def solve_poisson_zero_mean(rhs):
    """Spectral solve of -Lap v = rhs - mean(rhs); v has zero mean because its
    k = 0 mode is zeroed."""
    _, _, k2 = _wavenumbers(rhs.shape[0])
    rh = np.fft.fft2(rhs)
    vh = np.divide(rh, k2, out=np.zeros_like(rh), where=k2 != 0)
    return np.fft.ifft2(vh).real


def dirichlet_energy(field):
    """Integral of |Dv|^2 over the torus by Parseval."""
    n = field.shape[0]
    _, _, k2 = _wavenumbers(n)
    c = np.fft.fft2(field) / n**2
    return float(np.sum(k2 * np.abs(c) ** 2))


# -- rasterization -------------------------------------------------------------


def _crossing_fill(curve, n):
    """Exact +-1 sign grid, +1 where `validate`'s coverage count L is larger.
    The node rows are the integer rows of the curve scaled by n in y, so one
    half-open `_row_crossings` call gives all their crossings.  L is read up
    a column x0 off the markers and those crossings, so that no node row
    meets the curve on it, then along each row by a cumsum."""
    a, b = _all_segments(curve)
    a, d = a * (1.0, n), (b - a) * (1.0, n)
    x, s, k = _row_crossings(a, d, 0.0)
    x0 = _off_markers(0.0, np.concatenate([a[:, 0], x]), 0.0123456789)
    yc, sc, _ = _row_crossings(a[:, ::-1], d[:, ::-1], x0)
    # L rises up the column past a crossing with dx > 0 and falls along a row,
    # going right from x0, past one with dy > 0
    steps = np.zeros((n + 1, n))
    steps[0] = np.cumsum(np.bincount(np.ceil(yc % n).astype(int), sc, n + 1)[:n])
    i0 = int(np.ceil(x0 * n))
    np.add.at(steps, (np.ceil((x0 + (x - x0) % 1.0) * n).astype(int) - i0, k % n), -s)
    L = np.roll(np.cumsum(steps[:n], axis=0), i0, axis=0)
    if L.min() == L.max():  # the curve misses every node: they lie in the larger phase
        return np.full((n, n), 1.0 if enclosed_area(curve) > 0.5 else -1.0)
    return np.where(L == L.max(), 1.0, -1.0)


def signed_distance_grid(curve, grid_n):
    """Signed distance field d_E on the uniform grid (negative inside E), as an
    n x n array with the first index along x."""
    if grid_n < 64:
        raise ResolutionError("grid_n must be >= 64")
    xs = np.arange(grid_n) / grid_n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    d = signed_distance_points(curve, pts)
    return d.reshape(grid_n, grid_n)


def asymmetry_distance(curve, reference, grid_n=256):
    """(D, |E Delta F|): distance-weighted and plain symmetric-difference areas;
    D integrates |d_F| over the symmetric difference on the grid."""
    d_ref = signed_distance_grid(reference, grid_n)
    mask = _crossing_fill(curve, grid_n) != _crossing_fill(reference, grid_n)
    D = float(np.mean(np.abs(d_ref) * mask))
    return D, float(np.mean(mask))


def _band_distances(curve, n, cutoff):
    """(flat node indices, signed distances) for nodes within cutoff of the curve.

    Each lifted segment scores the lifted nodes of its bounding box padded by
    `cutoff` (one span for all boxes), so no periodic images are needed; per
    wrapped node, in ascending order, the nearest segment gives |d| and the
    side of its nearest point (geometry._outward) the sign."""
    a, b = _all_segments(curve)
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    lo = np.floor((np.minimum(a, b) - cutoff) * n).astype(int)
    span = np.max(np.ceil((np.maximum(a, b) + cutoff) * n).astype(int) - lo, axis=0) + 1
    ix = lo[:, 0, None] + np.arange(span[0])  # (segments, span_x) lifted node columns
    iy = lo[:, 1, None] + np.arange(span[1])
    relx = (ix / n - a[:, 0, None])[:, :, None]
    rely = (iy / n - a[:, 1, None])[:, None, :]
    abx, aby = ab[:, 0, None, None], ab[:, 1, None, None]
    t = np.clip((relx * abx + rely * aby) / ab2[:, None, None], 0.0, 1.0)
    diffx = relx - t * abx
    diffy = rely - t * aby
    dist = np.sqrt(diffx * diffx + diffy * diffy)
    near = dist <= cutoff
    flat = (np.mod(ix, n) * n)[:, :, None] + np.mod(iy, n)[:, None, :]
    flat, dist = flat[near], dist[near]
    diff = np.column_stack([diffx[near], diffy[near]])
    out = _outward(curve, ab, np.nonzero(near)[0], t[near], diff)
    best = np.full(n * n, np.inf)
    np.minimum.at(best, flat, dist)
    side = np.zeros(n * n)
    attains = dist == best[flat]
    side[flat[attains]] = out[attains]
    idx = np.nonzero(np.isfinite(best))[0]
    return idx, best[idx] * np.where(side[idx] < 0, -1.0, 1.0)


def rasterize_indicator(curve, n):
    """u_E on the grid: +1 inside, -1 outside, erf profile across the interface.

    The transition has slope 2/(INDICATOR_WIDTH*h) at the interface, i.e. it
    spans about INDICATOR_WIDTH grid cells.
    """
    if n < 128:
        raise ResolutionError("rasterization grid must have n >= 128")
    h = 1.0 / n
    cutoff = 4.0 * INDICATOR_WIDTH * h
    idx, d = _band_distances(curve, n, cutoff)
    vals = _crossing_fill(curve, n).ravel()
    vals[idx] = -erf(np.sqrt(np.pi) * d / (INDICATOR_WIDTH * h))
    return vals.reshape(n, n)


# -- traces --------------------------------------------------------------------


def interpolate_grid(field_values, points):
    """Sample a grid field at arbitrary torus points.

    Exact evaluation of the field's trigonometric interpolant (Nyquist row and
    column dropped) by a direct Fourier sum: one exp(2 pi i k x) table per
    axis and one (points x n) by (n x n) complex product.
    """
    n = field_values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = k != -(n // 2)
    c = np.fft.fft2(field_values)[np.ix_(keep, keep)] / n**2
    p = 2j * np.pi * np.mod(np.asarray(points, dtype=float), 1.0)
    ex = np.exp(np.outer(p[:, 0], k[keep]))
    ey = np.exp(np.outer(p[:, 1], k[keep]))
    return np.einsum("pk,pk->p", ex @ c, ey).real


def potential_of_set(curve, n=256):
    """(v, trace): the zero-mean torus potential v_E of the phase indicator on
    the n x n grid and its values at the markers.

    The trace is the exact value of the grid potential's trigonometric
    interpolant at the markers.
    """
    v = solve_poisson_zero_mean(rasterize_indicator(curve, n))
    return v, interpolate_grid(v, curve.markers())
