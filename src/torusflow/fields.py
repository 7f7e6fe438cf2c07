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
from .geometry import _all_segments, signed_distance_points

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
    """Exact +-1 sign grid by line-crossing parity; column pass, then row pass
    for columns the first pass cannot resolve (e.g. axis-parallel lamellae)."""
    a, b = _all_segments(curve)
    sign = np.zeros((n, n))

    def ceil_idx(x):
        return np.ceil(x * n - 1e-9).astype(int)

    def pass_axis(axis):
        d = b - a
        fw = d[:, axis] > 0
        bw = d[:, axis] < 0
        # half-open inclusion at the departure endpoint: each vertex crossing
        # is counted exactly once, tangential touches not at all
        m_lo = np.where(fw, ceil_idx(a[:, axis]), ceil_idx(b[:, axis]))
        m_hi = np.where(fw, ceil_idx(b[:, axis]) - 1, ceil_idx(a[:, axis]) - 1)
        m_lo[~(fw | bw)] = 0
        m_hi[~(fw | bw)] = -1
        counts = np.maximum(m_hi - m_lo + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return None
        seg_idx = np.repeat(np.arange(a.shape[0]), counts)
        offs = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        mm = m_lo[seg_idx] + offs
        t = (mm / n - a[seg_idx, axis]) / d[seg_idx, axis]
        other = a[seg_idx, 1 - axis] + t * d[seg_idx, 1 - axis]
        col = np.mod(mm, n)
        ycross = np.mod(other, 1.0)
        direction = np.sign(d[seg_idx, axis])
        out = np.zeros((n, n))
        nodes = np.arange(n) / n
        order = np.lexsort((ycross, col))
        col, ycross, direction = col[order], ycross[order], direction[order]
        starts = np.searchsorted(col, np.arange(n))
        stops = np.searchsorted(col, np.arange(n) + 1)
        for c in range(n):
            if starts[c] == stops[c]:
                continue
            ys = ycross[starts[c] : stops[c]]
            ds = direction[starts[c] : stops[c]]
            idx = np.searchsorted(ys, nodes + 1e-15)
            # inner normal is (tau_y, -tau_x) flipped: for x-lines (axis 0) the
            # phase lies above a dx>0 crossing, for y-lines below a dy>0 one
            orient = -1.0 if axis == 0 else 1.0
            region_signs = orient * ds[0] * (-1.0) ** np.arange(len(ys) + 1)
            vals = region_signs[idx]
            if axis == 0:
                out[c, :] = vals
            else:
                out[:, c] = vals
        return out

    colpass = pass_axis(0)
    if colpass is not None:
        sign = colpass
    missing = sign == 0
    if np.any(missing):
        rowpass = pass_axis(1)
        if rowpass is not None:
            sign = np.where(missing & (rowpass != 0), rowpass, sign)
    # a column with no axis-0 crossing is single-phase along y: copy the sign
    # from any node the row pass resolved, else probe one representative node
    holes = np.nonzero(np.any(sign == 0, axis=1))[0]
    probe_cols = []
    for c in holes:
        col = sign[c]
        nz = col[col != 0]
        if nz.size:
            sign[c, col == 0] = nz[0]
        else:
            probe_cols.append(c)
    if probe_cols:
        probe_cols = np.asarray(probe_cols)
        reps = np.column_stack(
            [probe_cols / n, np.full(probe_cols.size, 0.236067977)]
        )
        s = np.where(signed_distance_points(curve, reps) < 0, 1.0, -1.0)
        sign[probe_cols, :] = s[:, None]
    if np.any(sign == 0):
        raise ResolutionError("rasterization could not resolve the phase sign")
    return sign


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


def asymmetry_distance(curve, reference, grid_n=256, d_ref=None):
    """(D, |E Delta F|): distance-weighted and plain symmetric-difference areas.

    D integrates |d_F| over the symmetric difference on the grid; d_ref may
    carry a precomputed signed-distance field of the reference.
    """
    if d_ref is None:
        d_ref = signed_distance_grid(reference, grid_n)
    chi_e = _crossing_fill(curve, grid_n) > 0
    chi_f = _crossing_fill(reference, grid_n) > 0
    mask = chi_e != chi_f
    D = float(np.mean(np.abs(d_ref) * mask))
    return D, float(np.mean(mask))


def _band_distances(curve, n, cutoff):
    """(flat node indices, signed distances) for nodes within cutoff of the curve.

    Each lifted segment scores the lifted nodes of its bounding box padded by
    `cutoff` (one span for all boxes), so no periodic images are needed; per
    wrapped node, in ascending order, the nearest segment gives |d| and its side
    the sign."""
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
    # cross > 0: the node lies left of travel, i.e. inside E, where d is negative
    cross = (abx * diffy - aby * diffx)[near]
    best = np.full(n * n, np.inf)
    np.minimum.at(best, flat, dist)
    side = np.zeros(n * n)
    attains = dist == best[flat]
    side[flat[attains]] = cross[attains]
    idx = np.nonzero(np.isfinite(best))[0]
    return idx, best[idx] * np.where(side[idx] > 0, -1.0, 1.0)


def rasterize_indicator(curve, n):
    """u_E on the grid: +1 inside, -1 outside, erf profile across the interface.

    The transition has slope 2/(INDICATOR_WIDTH*h) at the interface, i.e. it
    spans about INDICATOR_WIDTH grid cells.
    """
    if n < 128:
        raise ResolutionError("rasterization grid must have n >= 128")
    sign = _crossing_fill(curve, n)
    h = 1.0 / n
    cutoff = 4.0 * INDICATOR_WIDTH * h
    idx, d = _band_distances(curve, n, cutoff)
    vals = sign.ravel().copy()
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
