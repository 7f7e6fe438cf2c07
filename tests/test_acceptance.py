"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
Criteria 4b and 9b are checked with the orders and thresholds of the
two-dimensional reduction: 4b fits the cubic-remainder order in an eps window
where it is asymptotic (gap 1 for Mullins-Sekerka, gap 2 for surface
diffusion, whose eps^3 term integrates an exact derivative around the closed
curve), and 9b sweeps gamma across the analytic lamella threshold gamma* of
tests/oracles.py.
"""

import time
import warnings

import numpy as np
import pytest

import oracles
from torusflow import shapes
from torusflow.diagnostics import (
    discrete_sobolev_norm,
    fit_exponential,
    verify_first_identity,
    verify_second_identity_ms,
    verify_second_identity_sd,
)
from torusflow.flow import (
    EnergyTrace,
    Evaluation,
    FlowParams,
    StoppingMonitor,
    _evaluate,
    _record,
    make_state,
    run,
    step,
)
from torusflow.geometry import (
    MarkerLoop,
    PeriodicCurve,
    enclosed_area,
    height_function,
    perimeter,
    resample_equal_arclength,
)
from torusflow.variation import (
    assemble_second_variation,
    lamella_threshold,
    second_variation_direct,
    spectrum,
)


def _report(num, ok, detail):
    stamp = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {stamp} - {detail}")
    return ok


def _mode_amplitude(curve, reference, mode, interface=1, kind="sin"):
    psi = height_function(curve, reference)
    sl = reference.loop_slices()[interface]
    x = reference.markers()[sl, 0]
    w = np.sin(2 * np.pi * mode * x) if kind == "sin" else np.cos(2 * np.pi * mode * x)
    return 2.0 * float(np.mean(psi[sl] * w))


def _circle_mode_amplitude(curve, reference, mode):
    psi = height_function(curve, reference)
    m = reference.markers()
    th = np.arctan2(m[:, 1] - 0.5, m[:, 0] - 0.5)
    return 2.0 * float(np.mean(psi * np.cos(mode * th)))


# -- 1. stationary equilibria ---------------------------------------------------


def test_acceptance_1_stationary_equilibria():
    t0 = time.time()
    worst = {}
    circle = shapes.circle(0.2, n=256)
    lam = shapes.strip(0.5, offset=0.25, n=256)
    worst["circle sd"] = np.abs(_evaluate(make_state(circle, "sd")).V).max()
    worst["circle ms"] = np.abs(_evaluate(make_state(circle, "ms")).V).max()
    worst["lamella sd"] = np.abs(_evaluate(make_state(lam, "sd")).V).max()
    worst["lamella ms g=1"] = np.abs(_evaluate(make_state(lam, "ms", gamma=1.0)).V).max()
    elapsed = time.time() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 10
    assert _report(
        1, ok, f"max|V| = {max(worst.values()):.2e} over {list(worst)} in {elapsed:.1f}s"
    )


# -- 2. conservation and monotonicity --------------------------------------------


def _conservation_run(kind, n, dt, gamma=0.0):
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=n)
    st = make_state(p, kind, gamma=gamma, params=FlowParams(dt=dt))
    res = run(st, t_end=2000 * dt, max_steps=2001)
    J = res.trace.column("J")
    A = res.trace.column("area")
    steps = len(res.trace) - 1
    mono = np.all(np.diff(J) <= 1e-9 * np.abs(J[:-1]))
    drift = float(np.abs(A - A[0]).max() / A[0])
    return steps, mono, drift


def test_acceptance_2_conservation_monotonicity():
    t0 = time.time()
    s_sd, mono_sd, drift_sd = _conservation_run("sd", 128, 2e-5)
    s_ms, mono_ms, drift_ms = _conservation_run("ms", 96, 1.1e-4)
    elapsed = time.time() - t0
    ok = (
        s_sd == 2000
        and s_ms == 2000
        and mono_sd
        and mono_ms
        and drift_sd <= 1e-6
        and drift_ms <= 1e-6
        and elapsed < 120
    )
    assert _report(
        2,
        ok,
        f"2000-step runs: J monotone (sd={mono_sd}, ms={mono_ms}), "
        f"area drift (sd={drift_sd:.1e}, ms={drift_ms:.1e}) in {elapsed:.0f}s",
    )


# -- 3. first energy identity ----------------------------------------------------


def _identity_run(kind, dt, steps, n=128):
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=n)
    st = make_state(p, kind, params=FlowParams(dt=dt))
    trace = EnergyTrace()
    _record(st, trace, None)
    for _ in range(steps):
        st = step(st, dt)
        _record(st, trace, None)
    return verify_first_identity(trace)["median"]


def test_acceptance_3_first_identity():
    t0 = time.time()
    med_sd = _identity_run("sd", 6.4e-5, 60)
    med_sd_half = _identity_run("sd", 3.2e-5, 120)
    med_ms = _identity_run("ms", 2.2e-4, 60)
    med_ms_half = _identity_run("ms", 1.1e-4, 120)
    elapsed = time.time() - t0
    ok = (
        med_sd <= 0.02
        and med_ms <= 0.02
        and med_sd / med_sd_half >= 3.0
        and med_ms / med_ms_half >= 3.0
        and elapsed < 120
    )
    assert _report(
        3,
        ok,
        f"median residual sd={med_sd:.4f} (halved: x{med_sd / med_sd_half:.1f}), "
        f"ms={med_ms:.4f} (halved: x{med_ms / med_ms_half:.1f}) in {elapsed:.0f}s",
    )


# -- 4. second energy identities ---------------------------------------------------


def _two_mode_circle(eps, n=256):
    base = shapes.circle(0.2, n=n)
    th = np.arctan2(base.markers()[:, 1] - 0.5, base.markers()[:, 0] - 0.5)
    psi = eps * (np.cos(2 * th) + np.cos(4 * th))
    return resample_equal_arclength(shapes.graph_over(base, psi), n)


def _two_mode_strip(eps, h=0.3, n=256):
    base = shapes.strip(h, n=n)
    x = base.markers()[:, 0]
    sl = base.loop_slices()
    psi = np.zeros(base.n_markers)
    psi[sl[1]] = eps * (np.sin(2 * np.pi * x[sl[1]]) + np.cos(4 * np.pi * x[sl[1]]))
    return resample_equal_arclength(shapes.graph_over(base, psi), n)


def test_acceptance_4a_second_identities_residual():
    t0 = time.time()
    rep_ms = verify_second_identity_ms(shapes.perturbed_circle(0.2, 1e-3, 2, n=512), 0.0)
    rep_sd = verify_second_identity_sd(shapes.perturbed_strip(0.5, 1e-3, 1, n=512))
    elapsed = time.time() - t0
    ok = rep_ms.relative_residual <= 0.05 and rep_sd.relative_residual <= 0.05
    assert _report(
        "4a",
        ok,
        f"identity residuals: ms={rep_ms.relative_residual:.2e}, "
        f"sd={rep_sd.relative_residual:.2e} at 512 markers in {elapsed:.0f}s",
    )


# Well below the Mullins-Sekerka crossover eps ~ 2.5e-4 (see 4b).
ASYMPTOTIC_EPS = (4e-6, 2e-6, 1e-6)


def _slope_gap(build, which):
    """Log-slope gap between |cubic remainder| and |second variation| over eps,
    plus the remainder's coefficients cubic/eps^p (p = 3 for ms, 4 for sd)."""
    q2, cubic = [], []
    for e in ASYMPTOTIC_EPS:
        c = build(e)
        if which == "ms":
            r = verify_second_identity_ms(c, 0.0)
            cub = r.terms["cubic"]
        else:
            r = verify_second_identity_sd(c)
            cub = r.terms["second_fundamental"] + r.terms["curvature_cubic"]
        q2.append(abs(r.terms["second_variation"]))
        cubic.append(cub)
    le = np.log(ASYMPTOTIC_EPS)
    gap = np.polyfit(le, np.log(np.abs(cubic)), 1)[0] - np.polyfit(le, np.log(q2), 1)[0]
    power = 3 if which == "ms" else 4
    return float(gap), [c / e**power for c, e in zip(cubic, ASYMPTOTIC_EPS)]


def test_acceptance_4b_cubic_remainder_order():
    # Criterion: the cubic remainder of each second energy identity is of
    # higher order in eps than the second variation (which scales as eps^2).
    #
    # MS, h = 0.3 two-mode strip: the remainder is c(eps) ~ A eps^3 + B eps^4
    # with A ~ -5.7e6 and B ~ -2.3e10, so eps^3 dominates only below the
    # crossover |A/B| ~ 2.5e-4.  Above it (eps = 4e-3..1e-3) the fitted gap
    # reads 1.89; in ASYMPTOTIC_EPS it is 1.009.  Expected gap: 1.0 +- 0.2.
    # (At h = 1/2 the eps^3 coefficient vanishes by symmetry, cubic/eps^4 is
    # constant at -1.944e10, so that strip could not test the order.)
    #
    # SD, two-mode circle: the remainder is -1/2 int kappa (kappa_s)^2 kappa_ss
    # ds.  On a reference of constant curvature kappa0, with kappa = kappa0 +
    # eps kappa1 + O(eps^2), its eps^3 coefficient is
    #   -kappa0/2 int (kappa1_s)^2 kappa1_ss ds = -kappa0/6 int ((kappa1_s)^3)_s ds,
    # the integral of an exact derivative around a closed curve, hence 0.  The
    # remainder is O(eps^4) and the gap is 2 at every eps (measured 1.99998 in
    # ASYMPTOTIC_EPS, cubic/eps^4 -> 2.585e14).  Expected gap: 2.0 +- 0.2.
    t0 = time.time()
    gap_ms, coef_ms = _slope_gap(_two_mode_strip, "ms")
    gap_sd, coef_sd = _slope_gap(_two_mode_circle, "sd")
    elapsed = time.time() - t0
    ok = abs(gap_ms - 1.0) <= 0.2 and abs(gap_sd - 2.0) <= 0.2
    assert _report(
        "4b",
        ok,
        f"cubic/quadratic slope gaps over eps={ASYMPTOTIC_EPS}: "
        f"ms={gap_ms:.4f} (1.0 +- 0.2; cubic/eps^3 = "
        f"{', '.join(f'{c:.4e}' for c in coef_ms)}), "
        f"sd={gap_sd:.4f} (2.0 +- 0.2; cubic/eps^4 = "
        f"{', '.join(f'{c:.4e}' for c in coef_sd)}) in {elapsed:.0f}s",
    )


# -- 5. spectral oracles -------------------------------------------------------------


def test_acceptance_5_spectral_oracles():
    t0 = time.time()
    rep_c = spectrum(assemble_second_variation(shapes.circle(0.2, n=128), 0.0, n_modes=8))
    zeros = rep_c.eigenvalues[rep_c.translation_overlap > 0.99]
    rep_l = spectrum(assemble_second_variation(shapes.lamella(1, 0.5, 64), 0.0, n_modes=6))
    zl = rep_l.eigenvalues[rep_l.translation_overlap > 0.99]
    elapsed = time.time() - t0
    ok = (
        abs(rep_c.gap_on_T_perp - 75.0) <= 0.75
        and abs(rep_l.gap_on_T_perp - (2 * np.pi) ** 2) <= 0.01 * (2 * np.pi) ** 2
        and len(zeros) == 2
        and np.abs(zeros).max() <= 1e-6
        and len(zl) == 1
        and np.abs(zl).max() <= 1e-6
        and elapsed < 30
    )
    assert _report(
        5,
        ok,
        f"circle gap {rep_c.gap_on_T_perp:.4f} (75), lamella gap "
        f"{rep_l.gap_on_T_perp:.4f} ({(2 * np.pi) ** 2:.4f}), zero modes "
        f"{np.abs(zeros).max():.1e} in {elapsed:.0f}s",
    )


# -- 6. finite-difference Hessian ------------------------------------------------------


def test_acceptance_6_finite_difference_hessian():
    t0 = time.time()
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
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.time() - t0
    ok = min(orders) >= 1.0 and elapsed < 60
    assert _report(
        6,
        ok,
        f"second-difference vs direct form: orders {orders[0]:.2f}, {orders[1]:.2f} "
        f"(>= 1 required) in {elapsed:.0f}s",
    )


# -- 7. linearized decay rates -----------------------------------------------------------


def _fit_mode_decay(kind, mode, n=128, steps=40, which="top"):
    rate = (
        oracles.sd_flat_rate(mode) if kind == "sd" else oracles.ms_strip_rate(mode, 0.5)
    )
    dt = 0.1 / rate
    ref = shapes.strip(0.5, n=n)
    p = shapes.perturbed_strip(0.5, 1e-3, mode, n=n, which=which)
    st = make_state(p, kind, params=FlowParams(dt=dt))
    ts, amps = [0.0], [_mode_amplitude(st.curve, ref, mode)]
    trace = EnergyTrace()
    _record(st, trace, None)
    for _ in range(steps):
        st = step(st, dt)
        ts.append(st.time)
        amps.append(_mode_amplitude(st.curve, ref, mode))
        _record(st, trace, None)
    psi_rate, _ = fit_exponential(np.array(ts), np.abs(amps))
    c0, _ = fit_exponential(trace.column("t"), trace.column("dissipation"))
    return psi_rate, c0, rate


def test_acceptance_7_linearized_decay_rates():
    t0 = time.time()
    results = {}
    for mode in (1, 2):
        psi_rate, c0, oracle = _fit_mode_decay("sd", mode)
        results[f"sd k={mode}"] = (psi_rate / oracle, c0 / (2 * psi_rate))
    psi_rate, c0, oracle = _fit_mode_decay("ms", 1, which="both")
    results["ms k=1"] = (psi_rate / oracle, c0 / (2 * psi_rate))
    elapsed = time.time() - t0
    ok = all(
        abs(r - 1) <= 0.05 and abs(c - 1) <= 0.05 for r, c in results.values()
    ) and elapsed < 300
    assert _report(
        7,
        ok,
        "psi-rate/oracle and c0/(2 psi-rate): "
        + ", ".join(f"{k}: ({r:.4f}, {c:.4f})" for k, (r, c) in results.items())
        + f" in {elapsed:.0f}s",
    )


# -- 8. asymptotic stability experiment ---------------------------------------------------


def _stability_run(kind, dt, t_end, order):
    ref = shapes.circle(0.2, n=256)
    # |E_0| = |F| per the stability theorems: volume-match the perturbation
    p = shapes.with_area(shapes.perturbed_circle(0.2, 5e-3, 2, n=256), enclosed_area(ref))
    st = make_state(p, kind, params=FlowParams(dt=dt))
    mon = StoppingMonitor(eps0=0.5, delta0=100.0, reference=ref)
    res = run(st, monitor=mon, t_end=t_end)
    psi = height_function(res.state.curve, ref)
    norm = discrete_sobolev_norm(psi, ref, order)
    t = res.trace.column("t")
    d = res.trace.column("dissipation")
    keep = d > 1e-9 * d[0]
    c0, _ = fit_exponential(t[keep], d[keep])
    return res.event, norm, c0


def test_acceptance_8_asymptotic_stability():
    t0 = time.time()
    lam_sd = oracles.sd_circle_rate(2, 0.2)
    ev_sd, norm_sd, c0_sd = _stability_run("sd", 2e-6, 14.0 / lam_sd, 3.0)
    lam_ms = oracles.ms_circle_rate(2, 0.2)
    ev_ms, norm_ms, c0_ms = _stability_run("ms", 3e-5, 14.0 / lam_ms, 2.5)
    elapsed = time.time() - t0
    ok = (
        ev_sd == "completed"
        and ev_ms == "completed"
        and norm_sd < 1e-5
        and norm_ms < 1e-5
        and abs(c0_sd / (2 * lam_sd) - 1) <= 0.10
        and abs(c0_ms / (2 * lam_ms) - 1) <= 0.10
        and elapsed < 600
    )
    assert _report(
        8,
        ok,
        f"sd: event={ev_sd} |psi|_W32={norm_sd:.1e} c0/2lam={c0_sd / (2 * lam_sd):.3f}; "
        f"ms: event={ev_ms} |psi|_W52={norm_ms:.1e} c0/2lam={c0_ms / (2 * lam_ms):.3f} "
        f"in {elapsed:.0f}s",
    )


# -- 9. k(gamma) threshold sweep -------------------------------------------------------------


# Brackets the analytic threshold gamma* ~ 94.87 of the h = 1/2 lamella (9b).
GAMMA_LIST = (0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0)


@pytest.fixture(scope="module")
def threshold_table():
    cache = {}
    table = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in GAMMA_LIST:
            table[g] = lamella_threshold(g, k_max=6, cache=cache)
    return table


def test_acceptance_9a_threshold_monotone(threshold_table):
    ks = [threshold_table[g] for g in GAMMA_LIST]
    ok = all(k is not None for k in ks) and ks[0] == 1
    ok = ok and all(ks[i + 1] >= ks[i] for i in range(len(ks) - 1))
    assert _report(
        "9a", ok, f"k(gamma) over {GAMMA_LIST}: {ks} (nondecreasing, k(0)=1)"
    )


def test_acceptance_9b_some_gamma_exceeds_one(threshold_table):
    # Criterion: some listed gamma has k(gamma) >= 2.  The single strip at
    # h = 1/2 stays strictly stable until its meander mode softens at
    # gamma* = (2 pi)^2 / (1 - 8(G_1(0) - G_1(1/2))) ~ 94.87, so the sweep
    # brackets gamma* and the transition is asserted against that oracle:
    # k = 1 for every listed gamma below gamma*, k >= 2 for every one above,
    # at least one listed gamma on each side, and none within 5% of gamma*
    # (the discrete meander eigenvalue matches the 1D oracle to 1e-3, see
    # test_strip_gamma_modes_match_1d_oracle).
    ks = [threshold_table[g] for g in GAMMA_LIST]
    gstar = oracles.single_strip_gamma_star(0.5)
    below = [g for g in GAMMA_LIST if g < gstar]
    above = [g for g in GAMMA_LIST if g > gstar]
    margin = min(abs(g - gstar) for g in GAMMA_LIST) / gstar
    ok = bool(below) and bool(above) and margin > 0.05
    ok = ok and all(threshold_table[g] == 1 for g in below)
    ok = ok and all(threshold_table[g] is not None and threshold_table[g] >= 2 for g in above)
    assert _report(
        "9b",
        ok,
        f"k(gamma) = {ks} over {GAMMA_LIST}; analytic gamma* = {gstar:.2f}: "
        f"k = 1 required below ({below}), k >= 2 above ({above}); "
        f"nearest listed gamma {margin:.1%} from gamma* (> 5%)",
    )


# -- 10. geometric Poincare diagnostic ----------------------------------------------------------


def test_acceptance_10_geometric_poincare():
    from variation_reference import geometric_poincare_ratio

    t0 = time.time()
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        pert = shapes.perturbed_strip(0.5, eps, 1, n=128)
        ratios.append(geometric_poincare_ratio(pert) * (2 * np.pi) ** 2)
    flagged = geometric_poincare_ratio(shapes.two_disks(0.1, 0.15))
    elapsed = time.time() - t0
    ok = (
        abs(ratios[-1] - 1.0) <= 0.02
        and abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12
        and np.isinf(flagged)
        and elapsed < 60
    )
    assert _report(
        10,
        ok,
        f"normalized ratio -> {ratios[-1]:.4f} (eps sweep {ratios}), "
        f"piecewise-constant-H flagged inf: {np.isinf(flagged)} in {elapsed:.0f}s",
    )
