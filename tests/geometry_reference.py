"""Dense geometry kernels: test-side references for the off-marker
evaluation, the height solve and the intersection test.

The package evaluates loops off the markers on a half-spectrum table built by
a running product, and draws the candidate pairs of its intersection test from
a periodic cell list.  This module keeps the earlier dense versions for the
tests to compare against: the evaluator and the height Newton loop form the
full N x N table exp(i alpha k) over the complex FFT spectrum, and the
intersection test forms every one of the N(N-1)/2 segment pairs.  All are
O(N^2) in time and memory, and none uses the package's spectral helpers.

The package takes the phase area from one spectral line integral per loop
and integers read off one row.  The earlier route, kept here, adds two
areas: the exact area of the marker polygon from per-segment column
integrals of the mod-1 height, and the lens correction, which is the
spectral shoelace of each loop minus the shoelace of its polygon.
"""

from __future__ import annotations

import numpy as np

from torusflow.errors import GraphFailure, ResolutionError, TopologyError
from torusflow.geometry import (
    HEIGHT_TOL,
    SPECTRAL_FILTER_REL,
    _all_segments,
    apply_symbol,
    signed_distance_points,
    spectral_factor,
    tubular_radius,
)


def _modes(n):
    """Integer Fourier mode numbers in FFT order."""
    return np.fft.fftfreq(n, d=1.0 / n)


def _spectral_derivative_coeffs(coeffs, order):
    """Differentiate FFT coefficients; Nyquist mode zeroed for odd orders."""
    n = coeffs.shape[0]
    k = _modes(n)
    fac = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        fac[n // 2] = 0.0
    return coeffs * fac.reshape(-1, *([1] * (coeffs.ndim - 1)))


def evaluate_dense(lp, alphas, order=0):
    """Trigonometric evaluation of the lift of loop `lp` (or a derivative) at
    arbitrary alphas, from the filtered full FFT spectrum of its periodic part."""
    alpha_j = 2.0 * np.pi * np.arange(lp.n) / lp.n
    periodic = lp.lift - np.outer(alpha_j / (2.0 * np.pi), lp.winding)
    coeffs = np.fft.fft(periodic, axis=0) / lp.n
    coeffs[np.abs(coeffs) < SPECTRAL_FILTER_REL * np.abs(coeffs).max()] = 0.0
    alphas = np.asarray(alphas, dtype=float)
    if order:
        coeffs = _spectral_derivative_coeffs(coeffs, order)
    k = _modes(lp.n)
    ek = np.exp(1j * np.outer(alphas, k))
    vals = (ek @ coeffs).real
    if order == 0:
        vals = vals + np.outer(alphas / (2.0 * np.pi), lp.winding)
    elif order == 1:
        vals = vals + lp.winding / (2.0 * np.pi)
    return vals


def check_intersections_all_pairs(curve):
    """TopologyError when two segments of `curve` cross; every pair is tested."""
    a0, a1 = _all_segments(curve)
    sizes = [lp.n for lp in curve.components]
    loop_id = np.repeat(np.arange(len(sizes)), sizes)
    idx = np.concatenate([np.arange(n) for n in sizes])
    nseg = a0.shape[0]
    if nseg > 4096:
        raise ResolutionError("intersection test beyond desk scale")
    mids = 0.5 * (a0 + a1)
    radii = 0.5 * np.linalg.norm(a1 - a0, axis=1)
    ii, jj = np.triu_indices(nseg, k=1)
    # candidate pairs: minimal-image midpoint distance below the sum of
    # segment radii (short segments have a unique relevant lattice image)
    delta = mids[jj] - mids[ii]
    shift = np.round(delta)
    close = np.linalg.norm(delta - shift, axis=1) <= radii[ii] + radii[jj] + 1e-12
    ii, jj, shift = ii[close], jj[close], shift[close]
    same = loop_id[ii] == loop_id[jj]
    nloc = np.asarray(sizes)[loop_id]
    adjacent = (
        same
        & (np.all(shift == 0.0, axis=1))
        & (
            (np.abs(idx[ii] - idx[jj]) == 1)
            | (np.abs(idx[ii] - idx[jj]) == nloc[ii] - 1)
        )
    )
    p, q = a0[ii], a1[ii]
    r = a0[jj] - shift
    s = a1[jj] - shift

    def ccw(u, v, w):
        return (v[:, 0] - u[:, 0]) * (w[:, 1] - u[:, 1]) - (v[:, 1] - u[:, 1]) * (
            w[:, 0] - u[:, 0]
        )

    hit = (
        (np.sign(ccw(p, q, r)) * np.sign(ccw(p, q, s)) < 0)
        & (np.sign(ccw(r, s, p)) * np.sign(ccw(r, s, q)) < 0)
        & ~adjacent
    )
    if np.any(hit):
        raise TopologyError("curve self-intersects or loops collide")


def height_function_dense(curve, reference):
    """Height psi of `curve` over `reference`, sampled at the reference markers.

    Solves x_curve(alpha) = x_ref + t * nu_ref per reference marker by a
    vectorized Newton iteration on (t, alpha); raises GraphFailure when a ray
    misses the curve inside the tubular radius or the graph map folds.
    """
    if len(curve.components) != len(reference.components):
        raise GraphFailure("component count differs from reference")
    tub = tubular_radius(reference)
    out = []
    for lp_c, lp_r in zip(curve.components, reference.components):
        base = lp_r.lift
        nu = lp_r.normal()
        # local lattice alignment: bring the curve lift near the reference lift
        off = np.round(np.mean(lp_c.lift, axis=0) - np.mean(base, axis=0))
        clift = lp_c.lift - off
        d2 = np.sum((base[:, None, :] - clift[None, :, :]) ** 2, axis=2)
        jstar = np.argmin(d2, axis=1)
        alpha = 2.0 * np.pi * jstar / lp_c.n
        t = np.einsum("id,id->i", clift[jstar] - base, nu)
        k = _modes(lp_c.n)
        coeffs = np.fft.fft(clift - np.outer(np.arange(lp_c.n) / lp_c.n, lp_c.winding), axis=0) / lp_c.n
        dcoeffs = _spectral_derivative_coeffs(coeffs, 1)
        converged = np.zeros(base.shape[0], dtype=bool)
        for _ in range(60):
            ek = np.exp(1j * np.outer(alpha, k))
            x = (ek @ coeffs).real + np.outer(alpha / (2 * np.pi), lp_c.winding)
            dx = (ek @ dcoeffs).real + lp_c.winding / (2 * np.pi)
            F = x - base - t[:, None] * nu
            converged = np.linalg.norm(F, axis=1) < HEIGHT_TOL
            if np.all(converged):
                break
            # solve [ -nu, dx ] [dt, dalpha]^T = -F  (2x2 per marker)
            det = -nu[:, 0] * dx[:, 1] + nu[:, 1] * dx[:, 0]
            if np.any(np.abs(det) < 1e-14):
                raise GraphFailure("tangential ray: curve not a graph over reference")
            dt = (-F[:, 0] * dx[:, 1] + F[:, 1] * dx[:, 0]) / det
            da = (nu[:, 0] * F[:, 1] - nu[:, 1] * F[:, 0]) / det
            t = t + dt
            alpha = alpha + da
            if np.any(np.abs(t) > 2.0 * tub):
                raise GraphFailure("normal ray leaves the tubular neighborhood")
        if not np.all(converged):
            raise GraphFailure("height solve did not converge")
        if np.any(np.abs(t) > tub):
            raise GraphFailure("height exceeds tubular radius")
        # single-cover check: the preimage parameter must advance monotonically
        dal = np.diff(np.unwrap(np.mod(alpha, 2.0 * np.pi)))
        if base.shape[0] > 2 and not (np.all(dal > 0) or np.all(dal < 0)):
            raise GraphFailure("normal rays hit the curve more than once")
        out.append(t)
    return np.concatenate(out)


# -- phase area: polygon scanline plus lens correction ---------------------------


def area_scanline_lens(curve):
    """Phase area as the exact polygon area by the torus scanline plus the
    chord-to-arc lens correction of the trigonometric interpolant."""
    poly = _polygon_area_scanline(curve)
    lens = sum(_area_raw(lp) for lp in curve.components) - _polygon_shoelace_lift(curve)
    return poly + lens


def _area_raw(lp):
    """Signed shoelace integral of the lift, exact also for winding loops.

    For winding loops the linear ramp is integrated analytically so the
    quadrature stays spectral; the result is defined modulo half-integer
    lattice shifts which the owning curve resolves by point sampling.
    """
    alpha = 2.0 * np.pi * np.arange(lp.n) / lp.n
    q = lp.lift - np.outer(alpha / (2.0 * np.pi), lp.winding)
    dq = apply_symbol(q, spectral_factor(lp.n, 1))
    c = lp.winding / (2.0 * np.pi)
    per = q[:, 0] * dq[:, 1] - q[:, 1] * dq[:, 0]
    per += c[1] * q[:, 0] - c[0] * q[:, 1]
    g = c[0] * q[:, 1] - c[1] * q[:, 0]
    integral = 2.0 * np.pi * np.mean(per) + 2.0 * np.pi * g[0] - 2.0 * np.pi * np.mean(g)
    return 0.5 * integral


def _wrap_knots(a, d, y0):
    """(segment index, parameter) pairs where a segment's y crosses y0 + Z."""
    dy = d[:, 1]
    lo = np.minimum(a[:, 1], a[:, 1] + dy)
    hi = np.maximum(a[:, 1], a[:, 1] + dy)
    klo = np.ceil(lo - y0 - 1e-12).astype(int)
    khi = np.floor(hi - y0 + 1e-12).astype(int)
    counts = np.where(dy != 0.0, np.maximum(khi - klo + 1, 0), 0)
    seg = np.repeat(np.arange(a.shape[0]), counts)
    if seg.size == 0:
        return seg, np.empty(0)
    offs = np.arange(counts.sum()) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    kk = klo[seg] + offs
    t = (y0 + kk - a[seg, 1]) / dy[seg]
    return seg, t


def _polygon_area_scanline(curve, y0=0.34078604706783, x0=0.21370586327156):
    """Exact phase area of the marker polygon on the torus, winding-aware.

    Column-coverage identity: for each x the covered length equals
    sum(-dir * yhat) over crossings plus 1 if the base point (x, y0) lies
    inside; integrating in x turns the first part into per-segment trapezoid
    integrals of the mod-1 height and the second into the covered length of
    the base row.  Exact for polygons, including winding loops.
    """
    a, b = _all_segments(curve)
    d = b - a
    ys_all = np.concatenate([a[:, 1], b[:, 1]])
    while np.min(np.abs(((ys_all - y0 + 0.5) % 1.0) - 0.5)) < 1e-12:
        y0 += 0.0123456789
    # the side of the base point is read off the nearest segment, so the point
    # must not lie on the polygon
    corner = signed_distance_points(curve, np.array([[x0, y0]]))[0]
    while abs(corner) < 1e-12:
        x0 += 0.0123456789
        corner = signed_distance_points(curve, np.array([[x0, y0]]))[0]
    corner_inside = float(corner < 0)
    # row measure: half-open crossing rule, one count per vertex pass
    seg, t = _wrap_knots(a, d, y0)
    measure = corner_inside
    if seg.size:
        dy = d[seg, 1]
        ok = np.where(dy > 0, (t >= 0.0) & (t < 1.0), (t > 0.0) & (t <= 1.0))
        segk, tk = seg[ok], t[ok]
        xhat = np.mod(a[segk, 0] + tk * d[segk, 0] - x0, 1.0)
        measure += float(np.sum(np.sign(d[segk, 1]) * xhat))
    # column integrals: -int yhat dx per segment, split where yhat wraps
    nseg = a.shape[0]
    keep_int = (t > 1e-15) & (t < 1.0 - 1e-15)
    interior, t_int = seg[keep_int], t[keep_int]
    counts = np.bincount(interior, minlength=nseg)
    # flat per-segment knot lists [0, sorted interior wraps ..., 1]
    starts = np.concatenate([[0], np.cumsum(counts + 2)[:-1]])
    flat = np.zeros(int(np.sum(counts + 2)))
    segid = np.repeat(np.arange(nseg), counts + 2)
    if t_int.size:
        lex = np.lexsort((t_int, interior))
        seg_by, t_by = interior[lex], t_int[lex]
        run = np.arange(t_by.size) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        flat[starts[seg_by] + 1 + run] = t_by
    flat[starts + counts + 1] = 1.0
    piece = np.ones(flat.size, dtype=bool)
    piece[starts + counts + 1] = False  # the last knot of a segment starts no piece
    idx0 = np.nonzero(piece)[0]
    t0, t1, segp = flat[idx0], flat[idx0 + 1], segid[idx0]
    tm = 0.5 * (t0 + t1)
    shift = y0 + np.floor(a[segp, 1] + tm * d[segp, 1] - y0)
    yh0 = a[segp, 1] + t0 * d[segp, 1] - shift
    yh1 = a[segp, 1] + t1 * d[segp, 1] - shift
    dx = (t1 - t0) * d[segp, 0]
    total = -float(np.sum(0.5 * (yh0 + yh1) * dx))
    return total + measure


def _polygon_shoelace_lift(curve):
    """Mixed shoelace of the marker polygon on the lift (chord areas)."""
    a, b = _all_segments(curve)
    return 0.5 * float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
