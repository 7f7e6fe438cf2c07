"""Closed oriented interfaces on the flat unit 2-torus.

Conventions (fixed once, used everywhere):

* A loop is stored as one lifted copy of its markers in R^2; the integer
  winding vector closes the loop (``lift[N] = lift[0] + winding``).  All
  geometry is computed on the lift, outputs are reduced mod 1.
* Markers are ordered so that the enclosed phase E lies on the LEFT of the
  travel direction.  The outer unit normal is the right-hand normal
  ``nu = (tau_y, -tau_x)`` and points out of E.
* The scalar curvature is ``kappa = (x' x x'') / |x'|^3`` (cross product of
  first and second parameter derivatives).  With the ordering above a
  disk-shaped phase has kappa = +1/r > 0; a flat lamella has kappa = 0.
  In 2D the mean curvature H and the norm of the second fundamental form
  both reduce to kappa (H = kappa, |B|^2 = kappa^2).
* For a graph y = psi(x) with the phase below, these conventions give the
  outer normal (-psi', 1)/sqrt(1+psi'^2) and kappa = -psi'' (1+psi'^2)^(-3/2).

All operations are pure; curves are treated as immutable after construction.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import GraphFailure, OrientationError, ResolutionError, TopologyError

MIN_MARKERS = 16

# Position modes below this relative level are round-off; zero them before
# differentiating (fourth derivatives would otherwise amplify eps_mach by
# ~(N/2)^4 and swamp stationarity checks).  Krasny-style noise filter.
SPECTRAL_FILTER_REL = 1e-13

# A loop whose derivative-weighted spectral tail, max |k| |c_k| over |k| >= n/4
# relative to the mean speed L/2pi, exceeds this is too coarse to resample: its
# trigonometric interpolant no longer carries the curve (and its area).
RESAMPLE_TAIL_MAX = 1e-3
RESAMPLE_PASSES = 3  # resampling passes at most; later ones tighten a far-from-arclength input
DISTANCE_CHUNK = 4096  # points per brute-force block of signed_distance_points
HEIGHT_TOL = 1e-10  # residual |x_curve - x_ref - t nu_ref| after which one last update ends a solve


@lru_cache(maxsize=128)
def spectral_factor(n, order):
    """Read-only factor (ik)^order of d^order/dalpha^order on the rfft half
    spectrum k = 0..n//2 of n real samples; order -1 is the zero-mean
    antiderivative.  Odd orders zero the Nyquist mode of an even n."""
    k = np.arange(n // 2 + 1, dtype=float)
    fac = (1j * k) ** order if order >= 0 else np.append(0.0, 1.0 / (1j * k[1:]))
    if order % 2 and n % 2 == 0:
        fac[-1] = 0.0
    fac.flags.writeable = False
    return fac


def apply_symbol(values, symbol):
    """The Fourier multiplier `symbol` (one value per rfft mode) applied to real
    periodic samples along axis 0, e.g. spectral_factor(len(values), order)."""
    c = np.fft.rfft(values, axis=0)
    return np.fft.irfft((c.T * symbol).T, values.shape[0], axis=0)


def _evaluate_spectrum(coeffs, n, alphas, orders, winding=0.0):
    """The trigonometric interpolant of n samples with half spectrum `coeffs`
    (rfft / n) and its derivatives of the given orders at arbitrary alphas;
    interior modes are doubled to stand in for their conjugates.  The sum over
    k = b l + j < K = n//2 + 1 runs baby-step giant-step (Paterson & Stockmeyer
    1973) on running products e^{ij alpha}, j <= b = ceil(sqrt(K)), and
    e^{ib l alpha}, with no (points x modes) table (error ~ k eps).  The ramp
    alpha/2pi * winding of a lift is added back to orders 0 and 1."""
    K = coeffs.shape[0]
    b = int(np.ceil(np.sqrt(K)))
    m = -(-K // b)
    e = np.exp(1j * alphas)[None]  # powers along axis 0, points contiguous
    baby = np.cumprod(np.vstack([np.ones_like(e), np.repeat(e, b, axis=0)]), axis=0)
    giant = np.cumprod(np.vstack([np.ones_like(e), np.repeat(baby[b:], m - 1, axis=0)]), axis=0)
    c = np.zeros((len(orders), m * b) + coeffs.shape[1:], dtype=complex)
    for c_o, o in zip(c, orders):
        c_o[:K] = (coeffs.T * spectral_factor(n, o)).T
    c[:, 1 : (n + 1) // 2] *= 2.0
    c = np.moveaxis(c.reshape(len(orders), m, b, -1), 2, -1)  # (orders, l, cols, j)
    inner = (c.reshape(-1, b) @ baby[:b]).reshape(c.shape[:-1] + (alphas.size,))
    out = np.einsum("lp,olcp->opc", giant, inner).real
    ramp = {0: np.multiply.outer(alphas / (2.0 * np.pi), winding), 1: winding / (2.0 * np.pi)}
    shape = alphas.shape + coeffs.shape[1:]
    return [v.reshape(shape) + ramp.get(o, 0.0) for v, o in zip(out, orders)]


class MarkerLoop:
    """One closed marker loop, stored as a lift in R^2 plus a winding vector."""

    def __init__(self, lift, winding=(0, 0)):
        lift = np.ascontiguousarray(np.asarray(lift, dtype=float))
        if lift.ndim != 2 or lift.shape[1] != 2:
            raise ValueError("lift must be an (N, 2) array")
        if lift.shape[0] < MIN_MARKERS:
            raise ResolutionError(
                f"loop needs at least {MIN_MARKERS} markers, got {lift.shape[0]}"
            )
        self.lift = lift
        self.winding = np.asarray(winding, dtype=int).reshape(2)
        self._derivatives = {}
        closure = np.linalg.norm(
            np.diff(lift, axis=0, append=(lift[:1] + self.winding)), axis=1
        )
        if np.any(closure < 1e-14):
            raise TopologyError("consecutive lifted markers coincide")

    @classmethod
    def from_points(cls, points):
        """Build from torus points, wrapped or lifted; each point moves by whole
        periods to the minimal image of its predecessor, so a lift comes back
        bit-exact."""
        pts = np.asarray(points, dtype=float)
        shifts = np.cumsum(np.round(np.diff(pts, axis=0)), axis=0)
        lift = np.vstack([pts[:1], pts[1:] - shifts])
        last = pts[0] - lift[-1]
        last -= np.round(last)
        winding = np.round(lift[-1] + last - lift[0]).astype(int)
        return cls(lift, winding)

    @property
    def n(self):
        return self.lift.shape[0]

    @property
    def markers(self):
        """The lift reduced to [0, 1); np.mod returns 1.0 for a tiny negative
        coordinate, which is folded to 0.0."""
        m = np.mod(self.lift, 1.0)
        m[m == 1.0] = 0.0
        return m

    # -- spectral machinery -------------------------------------------------

    @cached_property
    def _coeffs(self):
        """Filtered rfft half spectrum (rfft / n) of the periodic part
        q = lift - alpha winding / 2pi, computed once per (immutable) loop and
        returned read-only."""
        alpha = 2.0 * np.pi * np.arange(self.n) / self.n
        q = self.lift - np.outer(alpha / (2.0 * np.pi), self.winding)
        c = np.fft.rfft(q, axis=0) / self.n
        cut = SPECTRAL_FILTER_REL * np.abs(c).max()
        c[np.abs(c) < cut] = 0.0
        c.flags.writeable = False
        return c

    def spectral_tail(self):
        """max |k| |c_k| over |k| >= n/4, relative to the mean speed L/2pi."""
        k = np.arange(self._coeffs.shape[0])
        high = k >= self.n / 4
        tail = float(np.max(k[high, None] * np.abs(self._coeffs[high])))
        return tail / (self.length() / (2.0 * np.pi))

    def derivative(self, order=1):
        """d^order x / d alpha^order at the markers (alpha in [0, 2pi)), computed
        once per order and returned read-only."""
        if order not in self._derivatives:
            fac = spectral_factor(self.n, order)[:, None]
            dq = np.fft.irfft(self._coeffs * fac * self.n, self.n, axis=0)
            if order == 1:
                dq += self.winding / (2.0 * np.pi)
            dq.flags.writeable = False
            self._derivatives[order] = dq
        return self._derivatives[order]

    def evaluate(self, alphas, order=0):
        """Trigonometric evaluation of the lift (or a derivative) at arbitrary alphas."""
        alphas = np.asarray(alphas, dtype=float)
        return _evaluate_spectrum(self._coeffs, self.n, alphas, (order,), self.winding)[0]

    def speed(self):
        return np.linalg.norm(self.derivative(1), axis=1)

    def length(self):
        return 2.0 * np.pi * float(np.mean(self.speed()))

    def tangent(self):
        d = self.derivative(1)
        return d / np.linalg.norm(d, axis=1)[:, None]

    def normal(self):
        """Outer normal (right-hand normal of the travel direction)."""
        t = self.tangent()
        return np.column_stack([t[:, 1], -t[:, 0]])

    def curvature(self):
        d1 = self.derivative(1)
        d2 = self.derivative(2)
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        return cross / np.linalg.norm(d1, axis=1) ** 3

    def arclength_weights(self):
        return self.speed() * (2.0 * np.pi / self.n)

    def arclength(self):
        """Cumulative arclength s(alpha_j), s(0) = 0, spectrally integrated."""
        sp = self.speed()
        osc = apply_symbol(sp, spectral_factor(self.n, -1))
        alpha = 2.0 * np.pi * np.arange(self.n) / self.n
        return np.mean(sp) * alpha + (osc - osc[0])

    def _line_integral(self):
        """-2pi <q_y dq_x/dalpha> - w_x <q_y> + w_y <q_x> + w_x w_y / 2, with q
        the periodic part, w the winding and <.> the mean over the loop, by
        Parseval on the half spectrum: the lift's -integral y dx plus
        w_y x_1 + w_x w_y (x_1 the first marker's x), hence the signed area
        of a closed loop."""
        c = self._coeffs
        k = np.arange(c.shape[0])
        wx, wy = self.winding
        q_dq = 2.0 * float(np.sum(k * np.imag(c[:, 1] * np.conj(c[:, 0]))))
        return -2.0 * np.pi * q_dq - wx * c[0, 1].real + wy * c[0, 0].real + 0.5 * wx * wy

    @property
    def orientation(self):
        """+1 for counterclockwise lifts (disk-like phase inside), else -1: the
        sign of the signed area of a closed loop; winding loops count as +1."""
        if np.any(self.winding):
            return 1
        return 1 if self._line_integral() >= 0 else -1


class PeriodicCurve:
    """Oriented interface on T^2: one or more disjoint marker loops.  With
    check=False the loops may cross or bound no phase (see enclosed_area)."""

    def __init__(self, components, check=True):
        if not components:
            raise ValueError("curve needs at least one loop")
        self.components = list(components)
        if check:
            self.validate()

    @property
    def n_markers(self):
        return sum(lp.n for lp in self.components)

    def loop_slices(self):
        out, start = [], 0
        for lp in self.components:
            out.append(slice(start, start + lp.n))
            start += lp.n
        return out

    def concat(self, per_loop_fn):
        return np.concatenate([np.asarray(per_loop_fn(lp)) for lp in self.components])

    def markers(self):
        return np.vstack([lp.markers for lp in self.components])

    def lifts(self):
        return np.vstack([lp.lift for lp in self.components])

    def normals(self):
        return np.vstack([lp.normal() for lp in self.components])

    def arclength_weights(self):
        return self.concat(lambda lp: lp.arclength_weights())

    def split(self, samples):
        vals = np.asarray(samples)
        return [vals[s] for s in self.loop_slices()]

    def require_samples(self, samples):
        """Per-marker samples as a float array, checked against the marker count."""
        if len(samples) != self.n_markers:
            raise ValueError(
                f"samples length {len(samples)} does not match {self.n_markers} markers"
            )
        return np.asarray(samples, dtype=float)

    @cached_property
    def _area(self):
        """See enclosed_area; computed once per (immutable) curve."""
        return sum(lp._line_integral() for lp in self.components) % 1.0

    @cached_property
    def _tubular_radius(self):
        """See tubular_radius."""
        kap = np.abs(curvature(self))
        cap = min(0.45 / max(float(kap.max()), 1e-12), 0.25)
        if len(self.components) < 2:
            return cap
        best = np.inf
        for i, li in enumerate(self.components):
            other = PeriodicCurve([l for j, l in enumerate(self.components) if j != i], check=False)
            best = min(best, float(np.abs(signed_distance_points(other, li.markers)).min()))
        return min(0.5 * best, cap)

    # -- validation ----------------------------------------------------------

    def validate(self):
        total_winding = np.zeros(2, dtype=int)
        for lp in self.components:
            w = lp.winding
            if np.any(w != 0) and not set(np.abs(w)) <= {0, 1}:
                raise TopologyError(f"unsupported winding {w}")
            total_winding += w
        if np.any(total_winding != 0):
            raise OrientationError(
                f"boundary is not null-homologous: windings sum to {total_winding}"
            )
        self._check_intersections()
        _check_orientation(self)

    def _check_intersections(self):
        a0, a1 = _all_segments(self)
        sizes = [lp.n for lp in self.components]
        loop_id = np.repeat(np.arange(len(sizes)), sizes)
        idx = np.concatenate([np.arange(n) for n in sizes])
        nseg = a0.shape[0]
        mids = 0.5 * (a0 + a1)
        radii = 0.5 * np.linalg.norm(a1 - a0, axis=1)
        # periodic cell list: a cell side of at least 2 max radius + 1e-12 puts
        # every pair that can meet the criterion below in neighbouring cells
        # (1e-9 leaves room for the rounding of the cell indices)
        m = max(1, int(1.0 / (2.0 * radii.max() + 1e-9)))
        cx, cy = (np.floor(np.mod(mids, 1.0) * m).astype(np.int64) % m).T
        order = np.argsort(cx * m + cy)
        cells = (cx * m + cy)[order]
        steps = np.unique(np.array([-1, 0, 1]) % m)  # deduplicated when m < 3
        ox, oy = np.meshgrid(steps, steps, indexing="ij")
        nb = ((cx[:, None] + ox.ravel()) % m) * m + (cy[:, None] + oy.ravel()) % m
        lo = np.searchsorted(cells, nb.ravel(), "left")
        cnt = np.searchsorted(cells, nb.ravel(), "right") - lo
        # segment i meets the sorted run order[lo:lo + cnt] of each neighbour cell
        ii = np.repeat(np.repeat(np.arange(nseg), ox.size), cnt)
        jj = order[np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        ii, jj = ii[ii < jj], jj[ii < jj]
        # candidate pairs: minimal-image midpoint distance below the sum of
        # segment radii (short segments have a unique relevant lattice image)
        delta = mids[jj] - mids[ii]
        shift = np.round(delta)
        close = np.linalg.norm(delta - shift, axis=1) <= radii[ii] + radii[jj] + 1e-12
        ii, jj, shift = ii[close], jj[close], shift[close]
        same = loop_id[ii] == loop_id[jj]
        nloc = np.asarray(sizes)[loop_id]
        # index neighbours share an endpoint, which the test below may count
        # as a crossing; at the seam of a winding loop the shift is the winding and
        # the shared endpoint may come back one ulp off, so the shift is not asked
        gap = np.abs(idx[ii] - idx[jj])
        adjacent = same & ((gap == 1) | (gap == nloc[ii] - 1))
        p, q = a0[ii], a1[ii]
        r = a0[jj] - shift
        s = a1[jj] - shift

        def ccw(u, v, w):
            return (v[:, 0] - u[:, 0]) * (w[:, 1] - u[:, 1]) - (v[:, 1] - u[:, 1]) * (
                w[:, 0] - u[:, 0]
            )

        # sides counted half-open, a point on a segment's line lying on its
        # negative side: a segment passing exactly through a vertex of a crossing
        # polyline crosses one of the vertex's two segments, and collinear
        # segments never cross
        hit = (
            ((ccw(p, q, r) > 0) != (ccw(p, q, s) > 0))
            & ((ccw(r, s, p) > 0) != (ccw(r, s, q) > 0))
            & ~adjacent
        )
        if np.any(hit):
            raise TopologyError("curve self-intersects or loops collide")


# -- public operations --------------------------------------------------------


def resample_equal_arclength(curve, n_per_loop):
    """Redistribute markers to equal arclength on each loop (tangential move only).

    The markers are moved along the trigonometric interpolant of the input, so
    the represented curve (and its enclosed area) is preserved to spectral
    accuracy; an extra pass tightens the spacing when the input
    parametrization is far from arclength.  An input loop whose spectral tail
    exceeds RESAMPLE_TAIL_MAX is under-resolved and raises ResolutionError.
    """
    if n_per_loop < MIN_MARKERS:
        raise ResolutionError(f"n_per_loop must be >= {MIN_MARKERS}")
    for lp in curve.components:
        tail = lp.spectral_tail()
        if tail > RESAMPLE_TAIL_MAX:
            raise ResolutionError(
                f"loop of {lp.n} markers is under-resolved for resampling "
                f"(spectral tail {tail:.2e} > {RESAMPLE_TAIL_MAX:.0e})"
            )
    out = curve
    for _ in range(RESAMPLE_PASSES):
        out = _resample_once(out, n_per_loop)
        dev = 0.0
        for lp in out.components:
            w = lp.arclength_weights()
            dev = max(dev, float((w.max() - w.min()) / w.mean()))
        if dev < 1e-12:
            break
    out.validate()
    return out


def _resample_once(curve, n_per_loop):
    new_loops = []
    for lp in curve.components:
        L = lp.length()
        targets = np.arange(n_per_loop) * (L / n_per_loop)
        alpha = np.interp(
            targets,
            np.append(lp.arclength(), L),
            np.append(2.0 * np.pi * np.arange(lp.n) / lp.n, 2.0 * np.pi),
        )
        # Newton refinement of s(alpha) = target with spectral evaluations
        sp_c = np.fft.rfft(lp.speed()) / lp.n
        (osc0,) = _evaluate_spectrum(sp_c, lp.n, np.zeros(1), (-1,))
        for _ in range(8):
            osc, spd = _evaluate_spectrum(sp_c, lp.n, alpha, (-1, 0))
            res = sp_c[0].real * alpha + (osc - osc0) - targets
            if np.max(np.abs(res)) < 1e-13 * max(L, 1.0):
                break
            alpha = alpha - res / spd
        new_lift = lp.evaluate(alpha)
        new_loops.append(MarkerLoop(new_lift, lp.winding))
    return PeriodicCurve(new_loops, check=False)


def curvature(curve):
    """Scalar curvature kappa = H (in 2D) at each marker, disk-phase positive."""
    return curve.concat(lambda lp: lp.curvature())


def _d_ds(curve, f, order):
    """Arclength derivatives loop by loop, by spectral differentiation.

    Uses the chain rule through the loop parameter, so it stays exact for
    band-limited data even when markers are only approximately equidistributed.
    """
    out = []
    for loop, values in zip(curve.components, curve.split(curve.require_samples(f))):
        sp = loop.speed()
        for _ in range(order):
            values = apply_symbol(values, spectral_factor(loop.n, 1)) / sp
        out.append(values)
    return np.concatenate(out)


def arclength_derivative(curve, f):
    return _d_ds(curve, f, 1)


def surface_laplacian(curve, f):
    """Second arclength derivative per loop (the surface Laplacian on T^2 curves)."""
    return _d_ds(curve, f, 2)


def perimeter(curve):
    return float(sum(lp.length() for lp in curve.components))


def integrate_ds(curve, values):
    """Arclength integral of per-marker samples over the whole curve."""
    return float(np.sum(curve.arclength_weights() * curve.require_samples(values)))


def _row_crossings(a, d, y0):
    """(x, sign(dy), k) of each crossing of the segments a + t d with the rows
    y0 + k, k integer, counted half-open: a segment meets the rows in [lo, hi)
    of its heights, so a row is crossed once at a vertex the curve passes
    through, not at all (or twice with opposite signs) where the curve only
    touches it, and never by a horizontal segment."""
    dy = d[:, 1]
    ka = np.ceil(a[:, 1] - y0).astype(int)
    kb = np.ceil(a[:, 1] + dy - y0).astype(int)
    klo, counts = np.minimum(ka, kb), np.abs(kb - ka)
    seg = np.repeat(np.arange(a.shape[0]), counts)
    kk = klo[seg] + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    t = (y0 + kk - a[seg, 1]) / dy[seg]
    return a[seg, 0] + t * d[seg, 0], np.sign(dy[seg]), kk


def _off_markers(v, coords, step):
    """v moved in steps of `step` until it is 1e-12 off every coordinate mod 1."""
    while np.min(np.abs(((coords - v + 0.5) % 1.0) - 0.5)) < 1e-12:
        v += step
    return v


def _check_orientation(curve, y0=0.34078604706783, x0=0.21370586327156):
    """OrientationError unless the loops' orientations bound one phase.

    The coverage count L, zero at (x0, y0) and rising by one across the curve
    from its right to its left side, is read along the column x0 and the row
    y0, which meet every winding loop, and along a row through the steepest
    segment of every other loop they miss, so both sides of every loop are
    seen; the orientations are consistent exactly when the seen L span two
    integers.  Every line misses the marker coordinates.
    """
    a, b = _all_segments(curve)
    d = b - a
    x0 = _off_markers(x0, a[:, 0], 0.0123456789)
    yc, sc, _ = _row_crossings(a[:, ::-1], d[:, ::-1], x0)
    ys = np.concatenate([a[:, 1], yc])  # rows miss the column's crossings too
    y0 = _off_markers(y0, ys, 0.0123456789)
    uc = (yc - y0) % 1.0
    x, s, _ = _row_crossings(a, d, y0)
    seen = [np.zeros(1), np.cumsum(sc[np.argsort(uc)]), -np.cumsum(s[np.argsort((x - x0) % 1.0)])]
    for lp, sl in zip(curve.components, curve.loop_slices()):
        h = lp.lift[:, 1]
        if np.any(lp.winding) or np.ceil(h.min() - y0) <= h.max() - y0:
            continue  # the column or the row y0 meets it
        j = sl.start + int(np.argmax(np.abs(d[sl, 1])))
        if d[j, 1] == 0.0:
            raise TopologyError("closed loop without vertical extent")
        y = _off_markers(a[j, 1] + 0.5 * d[j, 1], ys, 1e-3 * d[j, 1])
        xr, sr, _ = _row_crossings(a, d, y)
        base = np.sum(sc[uc < (y - y0) % 1.0])
        seen.append(base - np.cumsum(sr[np.argsort((xr - x0) % 1.0)]))
    seen = np.concatenate(seen)
    lo, hi = int(seen.min()), int(seen.max())
    if hi - lo != 1:
        raise OrientationError(
            f"loop orientations inconsistent: the coverage count spans {lo}..{hi}, not two values"
        )


def enclosed_area(curve):
    """Area of the phase E in (0,1), winding-aware and spectrally accurate:
    the loops' line integrals summed mod 1 (whole-period moves of a lift or
    of the cell change the sum by integers).  It is computed once per curve;
    the range check runs at every call and fails only on a degenerate curve.
    Orientations are `validate`'s check, so an unvalidated curve's value may
    be no phase area."""
    area = curve._area
    if not 0.0 < area < 1.0:
        raise OrientationError(f"computed phase area {area:.6f} not in (0,1)")
    return area


def _all_segments(curve):
    """(start, end) of every closed-polygon segment on the lifts, loop after loop."""
    ends = [np.vstack([lp.lift[1:], lp.lift[:1] + lp.winding]) for lp in curve.components]
    return curve.lifts(), np.vstack(ends)


def displace(curve, disp):
    """Move every marker by its row of the (markers x 2) array `disp`; unvalidated."""
    return PeriodicCurve(
        [
            MarkerLoop(lp.lift + disp[sl], lp.winding)
            for lp, sl in zip(curve.components, curve.loop_slices())
        ],
        check=False,
    )


def enforce_volume(curve, target_area):
    """One safeguarded Newton step of a uniform normal offset onto the target area.

    The derivative of the area with respect to a uniform offset is the
    perimeter; the offset is clamped to a quarter marker spacing.  Returns the
    corrected (unvalidated) curve and the offset.
    """
    a = enclosed_area(curve)
    per = perimeter(curve)
    h = min(lp.length() / lp.n for lp in curve.components)
    delta = float(np.clip((target_area - a) / per, -0.25 * h, 0.25 * h))
    if delta == 0.0:
        return curve, 0.0
    return displace(curve, delta * curve.normals()), delta


def _outward(curve, ab, seg, t, diff):
    """diff . nu, positive outside E, for a point at offset diff from parameter
    t of segment `seg` of _all_segments (ab = end - start).  nu is the outer
    normal of the segment or, at t = 0 or 1, of the vertex: the sum of its two
    segments' (Baerentzen & Aanaes 2005), right also past a sharp vertex."""
    nu = np.column_stack([ab[:, 1], -ab[:, 0]]) / np.sqrt(np.sum(ab * ab, axis=1))[:, None]
    ids = [np.arange(sl.start, sl.stop) for sl in curve.loop_slices()]
    prev = np.concatenate([np.roll(i, 1) for i in ids])[seg]
    nxt = np.concatenate([np.roll(i, -1) for i in ids])[seg]
    nu = nu[seg] + (t == 0.0)[:, None] * nu[prev] + (t == 1.0)[:, None] * nu[nxt]
    return np.einsum("pd,pd->p", diff, nu)


def signed_distance_points(curve, points):
    """Signed torus distance to the interface, negative inside E.

    Brute force over all lifted segments with the displacement wrapped to the
    minimal image of each point-segment pair (segments are short, so the
    nearest image is unique); the sign is the side of the nearest curve point,
    see _outward.
    """
    a, b = _all_segments(curve)
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], DISTANCE_CHUNK):
        p = points[lo : lo + DISTANCE_CHUNK]
        rel = p[:, None, :] - a[None, :, :]
        rel -= np.round(rel)
        t = np.clip(np.einsum("psd,sd->ps", rel, ab) / ab2, 0.0, 1.0)
        diff = rel - t[:, :, None] * ab[None, :, :]
        d2 = np.einsum("psd,psd->ps", diff, diff)
        j = np.argmin(d2, axis=1)
        rows = np.arange(p.shape[0])
        side = _outward(curve, ab, j, t[rows, j], diff[rows, j])
        out[lo : lo + DISTANCE_CHUNK] = np.sqrt(d2[rows, j]) * np.where(side < 0, -1.0, 1.0)
    return out


def tubular_radius(reference):
    """Half the minimum cross-component distance, capped at 0.45/max|kappa|;
    computed once per (immutable) reference curve."""
    return reference._tubular_radius


def height_function(curve, reference):
    """Height psi of `curve` over `reference`, sampled at the reference markers.

    Solves x_curve(alpha) = x_ref + t * nu_ref per reference marker by a
    vectorized Newton iteration on (t, alpha) from the nearest curve marker,
    where the interpolant is read off the loop, and ending with the update
    that brings every residual from below HEIGHT_TOL to round-off; raises
    GraphFailure when a ray misses the curve inside the tubular radius or the
    graph map folds.
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
        # nearest curve marker: |c|^2 - 2 b.c differs from |b - c|^2 by |b|^2
        d2 = base @ clift.T
        d2 *= -2.0
        d2 += np.sum(clift**2, axis=1)
        jstar = np.argmin(d2, axis=1)
        del d2  # freed before the Newton loop allocates, or each call page-faults
        alpha = 2.0 * np.pi * jstar / lp_c.n
        t = np.einsum("id,id->i", clift[jstar] - base, nu)
        # unfiltered half spectrum of the offset lift
        n = lp_c.n
        coeffs = np.fft.rfft(clift - np.outer(np.arange(n) / n, lp_c.winding), axis=0) / n
        x, dx = clift[jstar], lp_c.derivative(1)[jstar]
        for _ in range(60):
            F = x - base - t[:, None] * nu
            converged = np.linalg.norm(F, axis=1) < HEIGHT_TOL
            # solve [ -nu, dx ] [dt, dalpha]^T = -F  (2x2 per marker)
            det = -nu[:, 0] * dx[:, 1] + nu[:, 1] * dx[:, 0]
            if np.any(np.abs(det) < 1e-14):
                raise GraphFailure("tangential ray: curve not a graph over reference")
            dt = (-F[:, 0] * dx[:, 1] + F[:, 1] * dx[:, 0]) / det
            da = (nu[:, 0] * F[:, 1] - nu[:, 1] * F[:, 0]) / det
            t = t + dt
            alpha = alpha + da
            if np.all(converged):
                break  # after the last update, which costs no evaluation
            if np.any(np.abs(t) > 2.0 * tub):
                raise GraphFailure("normal ray leaves the tubular neighborhood")
            x, dx = _evaluate_spectrum(coeffs, n, alpha, (0, 1), lp_c.winding)
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


# -- snapshot file ------------------------------------------------------------

CSV_HEADER = "loop,idx,x,y,wind_x,wind_y,orient"


def write_snapshot(curve, path):
    """Curve snapshot CSV with the lifted coordinates at full float64 precision."""
    lines = [CSV_HEADER]
    for li, lp in enumerate(curve.components):
        m = lp.lift
        for j in range(lp.n):
            lines.append(
                f"{li},{j},{m[j, 0]:.17g},{m[j, 1]:.17g},"
                f"{lp.winding[0]},{lp.winding[1]},{lp.orientation}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path):
    rows = np.genfromtxt(path, delimiter=",", names=True)
    rows = np.atleast_1d(rows)
    loops = []
    for li in np.unique(rows["loop"]).astype(int):
        sel = rows[rows["loop"] == li]
        sel = sel[np.argsort(sel["idx"])]
        pts = np.column_stack([sel["x"], sel["y"]])
        lp = MarkerLoop.from_points(pts)
        want = np.array([int(sel["wind_x"][0]), int(sel["wind_y"][0])])
        if not np.array_equal(lp.winding, want):
            raise TopologyError("snapshot winding inconsistent with marker path")
        loops.append(lp)
    return PeriodicCurve(loops)
