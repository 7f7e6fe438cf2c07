"""Canonical test geometries: circles, ellipses, strips, lamellae, graphs.

All constructors return curves whose marker order puts the phase E on the
left of travel (see geometry module conventions) and, unless noted, markers
already equidistributed in arclength.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import MarkerLoop, PeriodicCurve, displace, enforce_volume, resample_equal_arclength


def circle(r, center=(0.5, 0.5), n=256, phase="inside"):
    """Circle of radius r; phase='outside' builds the complement-phase curve."""
    if phase not in ("inside", "outside"):
        raise ConfigError("circle phase must be 'inside' or 'outside'")
    theta = 2.0 * np.pi * np.arange(n) / n
    if phase == "outside":
        theta = -theta  # clockwise travel puts E outside
    pts = np.column_stack(
        [center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)]
    )
    return PeriodicCurve([MarkerLoop(pts, (0, 0))])


def ellipse(a, b, center=(0.5, 0.5), n=256):
    t = 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([center[0] + a * np.cos(t), center[1] + b * np.sin(t)])
    return resample_equal_arclength(PeriodicCurve([MarkerLoop(pts, (0, 0))]), n)


def strip(h, offset=0.0, angle=0, n=256):
    """Lamellar strip of phase fraction h with interfaces at the given angle.

    angle 0: phase {offset < y < offset+h}; angle 90: same rotated; angle 45:
    phase between the lattice lines y - x = offset and y - x = offset + h.
    """
    if not 0.0 < h < 1.0:
        raise ConfigError("strip phase fraction must be in (0,1)")
    t = np.arange(n) / n
    if angle == 0:
        lower = np.column_stack([t, np.full(n, offset)])
        upper = np.column_stack([1.0 - t, np.full(n, offset + h)])
        return PeriodicCurve([MarkerLoop(lower, (1, 0)), MarkerLoop(upper, (-1, 0))])
    if angle == 90:
        left = np.column_stack([np.full(n, offset), 1.0 - t])
        right = np.column_stack([np.full(n, offset + h), t])
        return PeriodicCurve([MarkerLoop(left, (0, -1)), MarkerLoop(right, (0, 1))])
    if angle == 45:
        lower = np.column_stack([t, t + offset])
        upper = np.column_stack([1.0 - t, 1.0 - t + offset + h])
        return PeriodicCurve([MarkerLoop(lower, (1, 1)), MarkerLoop(upper, (-1, -1))])
    raise ConfigError("strip angle must be one of 0, 90, 45")


def lamella(k, h=0.5, n_per_loop=64, offset=0.0):
    """k equispaced strips (2k interfaces) of total phase fraction h."""
    if k < 1:
        raise ConfigError("lamella needs k >= 1")
    t = np.arange(n_per_loop) / n_per_loop
    loops = []
    for j in range(k):
        y0 = offset + j / k
        y1 = y0 + h / k
        loops.append(MarkerLoop(np.column_stack([t, np.full(n_per_loop, y0 % 1.0)]), (1, 0)))
        loops.append(
            MarkerLoop(np.column_stack([1.0 - t, np.full(n_per_loop, y1 % 1.0)]), (-1, 0))
        )
    return PeriodicCurve(loops)


def graph_over(reference, heights):
    """Displace every marker of `reference` by `heights` along its outer normal."""
    vals = reference.require_samples(heights)
    out = displace(reference, vals[:, None] * reference.normals())
    out.validate()
    return out


def perturbed_circle(r, eps, mode, center=(0.5, 0.5), n=256):
    """r(theta) = r + eps*cos(mode*theta), resampled to equal arclength."""
    theta = 2.0 * np.pi * np.arange(n) / n
    rho = r + eps * np.cos(mode * theta)
    pts = np.column_stack(
        [center[0] + rho * np.cos(theta), center[1] + rho * np.sin(theta)]
    )
    # the resampled curve is the one validated
    return resample_equal_arclength(PeriodicCurve([MarkerLoop(pts, (0, 0))], check=False), n)


def perturbed_strip(h, eps, mode, offset=0.0, n=256, which="top"):
    """Strip with sinusoidally displaced interfaces.

    which='top' displaces only the upper interface outward by eps*sin(2 pi mode x);
    which='both' displaces both interfaces outward (the slow MS eigenmode).
    """
    if which not in ("top", "bottom", "both"):
        raise ConfigError("perturbed strip 'which' must be 'top', 'bottom' or 'both'")
    base = strip(h, offset=offset, angle=0, n=n)
    x = base.markers()[:, 0]
    psi = np.zeros(base.n_markers)
    sl = base.loop_slices()
    if which in ("top", "both"):
        psi[sl[1]] = eps * np.sin(2.0 * np.pi * mode * x[sl[1]])
    if which in ("bottom", "both"):
        psi[sl[0]] = eps * np.sin(2.0 * np.pi * mode * x[sl[0]])
    return resample_equal_arclength(displace(base, psi[:, None] * base.normals()), n)


def perturbed_lamella(k, eps, mode, h=0.5, n_per_loop=128):
    """k-strip lamella with every interface displaced outward by eps*sin(2 pi mode x)."""
    base = lamella(k, h=h, n_per_loop=n_per_loop)
    x = base.markers()[:, 0]
    psi = eps * np.sin(2.0 * np.pi * mode * x)
    return resample_equal_arclength(displace(base, psi[:, None] * base.normals()), n_per_loop)


def with_area(curve, target):
    """Uniform normal offset matching the enclosed area to `target`: up to four
    `enforce_volume` Newton steps, stopping before one below 1e-15.

    Used to build volume-compatible perturbations of a reference set, per the
    |E_0| = |F| hypothesis of the stability theorems.
    """
    out = curve
    for _ in range(4):
        moved, delta = enforce_volume(out, target)
        if abs(delta) < 1e-15:
            break
        out = moved
    out.validate()
    return out


def two_disks(r1=0.12, r2=0.12, c1=(0.25, 0.25), c2=(0.75, 0.75), n=128):
    """Two disjoint disk phases (used by the piecewise-constant-H diagnostics)."""
    a = circle(r1, c1, n).components[0]
    b = circle(r2, c2, n).components[0]
    return PeriodicCurve([a, b])
