"""Flow equivariance: the flat torus's isometries and marker relabelling
commute with the SSD step, and the second-variation spectrum ignores them.

No closed form is needed: a step from the image of a curve must give the
image of the step from the curve.  Both runs take 4 fixed-dt steps; the lifts
of the two results must agree to C eps / rcond, with rcond the jump system's
condition estimate on the start curve (`Evaluation.solution`), and J to 1e-12
relative.  A reflection reverses the marker order (keeping the first marker
first), so that E stays on the left of travel.
"""

import numpy as np
import pytest

from torusflow import shapes
from torusflow.flow import Evaluation, FlowParams, make_state, step
from torusflow.geometry import MarkerLoop, PeriodicCurve
from torusflow.variation import assemble_second_variation, spectrum

EPS = np.finfo(float).eps
# measured at most 6.8e-5 eps / rcond over the cases below (lifts within 1.3e-15)
C_LIFT = 1e-3
J_REL = 1e-12
ROT90 = np.array([[0, -1], [1, 0]])
FLIP_X = np.array([[-1, 0], [0, 1]])
SWAP = np.array([[0, 1], [1, 0]])


def translated(curve):
    """The curve moved by a vector that is no lattice vector (nor a dyadic one)."""
    return PeriodicCurve(
        [MarkerLoop(lp.lift + (0.3172, 0.1289), lp.winding) for lp in curve.components]
    )


def rotated(curve):
    """The curve turned by 90 degrees about (1/2, 1/2); windings turn with it."""
    return PeriodicCurve(
        [MarkerLoop((lp.lift - 0.5) @ ROT90.T + 0.5, ROT90 @ lp.winding) for lp in curve.components]
    )


def reflected(matrix):
    """The map x -> matrix (x - 1/2) + 1/2 of an orientation-reversing lattice
    matrix, with each loop's marker order reversed from its first marker."""

    def transform(curve):
        loops = []
        for lp in curve.components:
            lift, w = (lp.lift - 0.5) @ matrix.T + 0.5, matrix @ lp.winding
            loops.append(MarkerLoop(np.vstack([lift[:1], lift[:0:-1] - w]), -w))
        return PeriodicCurve(loops)

    return transform


def rolled(curve):
    """Each loop's markers relabelled to start 5 markers later."""
    return PeriodicCurve(
        [MarkerLoop(np.vstack([lp.lift[5:], lp.lift[:5] + lp.winding]), lp.winding)
         for lp in curve.components]
    )


CURVES = {
    "perturbed_circle": lambda: shapes.perturbed_circle(0.2, 0.01, 3, n=128),
    "perturbed_strip": lambda: shapes.perturbed_strip(0.5, 0.01, 2, n=96, which="both"),
    # loops of unequal n; at eps = 0.01 the fixed dt steps far past
    # adaptive_dt and every flow misses the state's area check
    "perturbed_two_disks": lambda: PeriodicCurve(
        shapes.perturbed_circle(0.1, 0.002, 3, center=(0.27, 0.3), n=96).components
        + shapes.perturbed_circle(0.12, 0.002, 2, center=(0.72, 0.7), n=128).components
    ),
    "perturbed_lamella2": lambda: shapes.perturbed_lamella(2, 0.01, 2, n_per_loop=64),
}
FLOWS = {"ms_gamma0": ("ms", 0.0, 1e-4), "ms_gamma10": ("ms", 10.0, 1e-4), "sd": ("sd", 0.0, 2e-6)}


def four_steps(curve, kind, gamma, dt):
    """The curve after 4 steps of dt, and J there."""
    st = make_state(curve, kind, gamma=gamma, params=FlowParams(dt=dt))
    for _ in range(4):
        st = step(st, dt)
    ev = st.evaluation
    return st.curve, ev.perimeter + ev.nonlocal_energy


def lift_gap(curve, other):
    """The largest lift difference between matching markers of two curves."""
    return max(np.abs(a.lift - b.lift).max() for a, b in zip(curve.components, other.components))


def check_commutes(name, flow, transform):
    curve = CURVES[name]()
    kind, gamma, dt = FLOWS[flow]
    rcond = Evaluation(curve, "ms").solution[2]
    result, J = four_steps(curve, kind, gamma, dt)
    result_of_image, J_image = four_steps(transform(curve), kind, gamma, dt)
    image_of_result = transform(result)
    # the step moves the curve by far more than the tolerance
    assert lift_gap(curve, result) > 1e-6
    assert lift_gap(image_of_result, result_of_image) <= C_LIFT * EPS / rcond
    assert J_image == pytest.approx(J, rel=J_REL, abs=0.0)


@pytest.mark.parametrize(
    "transform",
    [translated, rotated, reflected(FLIP_X), reflected(SWAP)],
    ids=["translation", "rotation90", "reflection_x", "reflection_diagonal"],
)
@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("name", sorted(CURVES))
def test_step_commutes_with_torus_isometries(name, flow, transform):
    check_commutes(name, flow, transform)


@pytest.mark.parametrize("flow", ["ms_gamma0", "sd"])
@pytest.mark.parametrize("name", sorted(CURVES))
def test_step_commutes_with_marker_roll(name, flow):
    # exact at gamma = 0 and in SD; at gamma > 0 the trace of v_E is anchored
    # at each loop's first marker, which a roll moves
    check_commutes(name, flow, rolled)


def test_marker_roll_gap_refines_at_gamma_positive():
    # the roll's effect at gamma > 0 comes from anchoring v_E's constant at
    # each loop's first marker; it falls at least 16x per marker doubling
    # (measured 2.0e-11, 3.9e-13, 6.2e-15 at 48, 96, 192)
    gaps = []
    for n in (48, 96, 192):
        curve = shapes.perturbed_strip(0.5, 0.01, 2, n=n, which="both")
        result, _ = four_steps(curve, "ms", 10.0, 1e-4)
        result_of_image, _ = four_steps(rolled(curve), "ms", 10.0, 1e-4)
        gaps.append(lift_gap(rolled(result), result_of_image))
    assert gaps[0] >= 16 * gaps[1] and gaps[1] >= 16 * gaps[2], gaps


@pytest.mark.parametrize(
    "transform", [translated, rotated, rolled], ids=["translation", "rotation90", "roll"]
)
@pytest.mark.parametrize(
    "curve, gamma",
    [(shapes.circle(0.2, n=128), 0.0), (shapes.lamella(3, 0.5, 64), 10.0)],
    ids=["circle_gamma0", "lamella3_gamma10"],
)
def test_spectrum_is_invariant(curve, gamma, transform):
    lam = spectrum(assemble_second_variation(curve, gamma, n_modes=6)).eigenvalues
    lam_image = spectrum(assemble_second_variation(transform(curve), gamma, n_modes=6)).eigenvalues
    assert np.abs(lam_image - lam).max() <= 1e-12 * max(1.0, np.abs(lam).max())
