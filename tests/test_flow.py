"""Flow engine: stationarity, conservation, stepping orders, stopping events."""

import numpy as np
import pytest

import oracles
import rk4_reference
from torusflow import shapes
from torusflow.diagnostics import fit_exponential
from torusflow.flow import (
    ADVECTIVE_FRACTION,
    AREA_TOL,
    Evaluation,
    FlowParams,
    StoppingMonitor,
    _evaluate,
    adaptive_dt,
    enforce_volume,
    make_state,
    run,
    step,
)
from torusflow.geometry import PeriodicCurve, enclosed_area, height_function


def test_stationary_circle_sd():
    st = make_state(shapes.circle(0.2, n=256), "sd")
    assert np.abs(_evaluate(st).V).max() < 1e-6


def test_stationary_lamella_both():
    lam = shapes.strip(0.5, n=256)
    assert np.abs(_evaluate(make_state(lam, "sd")).V).max() < 1e-8
    assert np.abs(_evaluate(make_state(lam, "ms", gamma=1.0)).V).max() < 1e-8


def test_sd_gamma_forced_zero():
    st = make_state(shapes.circle(0.2, n=64), "sd", gamma=3.0)
    assert st.gamma == 0.0


def test_sd_linearized_velocity():
    eps, k = 1e-4, 2
    p = shapes.perturbed_strip(0.5, eps, k, n=256)
    V = _evaluate(make_state(p, "sd")).V
    x = p.markers()[:, 0]
    sl = p.loop_slices()
    amp = 2 * np.mean(V[sl[1]] * np.sin(2 * np.pi * k * x[sl[1]]))
    assert amp == pytest.approx(-oracles.sd_flat_rate(k) * eps, rel=1e-2)
    from torusflow.geometry import integrate_ds

    assert abs(integrate_ds(p, V)) < 1e-8 * np.abs(V).max()


def test_adaptive_dt_scaling():
    # a user dt below the advective cap is taken as given; without one the
    # step is the advective cap ADVECTIVE_FRACTION * h / max|V|
    p = shapes.perturbed_strip(0.5, 1e-2, 2, n=64)
    h = min(lp.length() / lp.n for lp in p.components)
    for kind in ("sd", "ms"):
        st = make_state(p, kind)
        vmax = np.abs(st.evaluation.V).max()
        assert ADVECTIVE_FRACTION * h / vmax < h
        assert adaptive_dt(st) == ADVECTIVE_FRACTION * h / vmax
        dt = 0.5 * ADVECTIVE_FRACTION * h / vmax
        assert adaptive_dt(make_state(p, kind, params=FlowParams(dt=dt))) == dt


def test_adaptive_dt_zero_velocity_cap():
    # V = 0 on a flat strip: the step is the user dt, else the smallest spacing
    st = make_state(shapes.strip(0.5, n=64), "sd")
    assert np.abs(st.evaluation.V).max() < 1e-8
    assert adaptive_dt(st) == pytest.approx(1 / 64, rel=1e-12)  # loops of length 1, 64 markers
    st = make_state(shapes.strip(0.5, n=64), "sd", params=FlowParams(dt=0.3))
    assert adaptive_dt(st) == 0.3


def test_enforce_volume():
    c = shapes.circle(0.2, n=128)
    target = enclosed_area(c)
    _, delta = enforce_volume(c, target)
    assert delta == pytest.approx(0.0, abs=1e-14)
    # shrink the target and check the first-order offset
    target -= 1e-5
    c3, delta3 = enforce_volume(c, target)
    assert delta3 == pytest.approx(-1e-5 / (0.4 * np.pi), rel=1e-3)
    # one safeguarded Newton step leaves the quadratic remainder ~ delta^2 kappa
    assert abs(enclosed_area(c3) - target) < 5e-10
    c4, delta4 = enforce_volume(c3, target)
    assert abs(delta4) < 1e-9
    assert abs(enclosed_area(c4) - target) < 1e-12


def test_step_checks_area_after_volume_correction():
    # the raw SSD step drifts the area by more than AREA_TOL; the stepped state
    # is built from the volume-corrected curve, so the run completes
    p = shapes.perturbed_circle(0.2, 0.03, 3, n=64)
    st = make_state(p, "sd", params=FlowParams(dt=1e-4))
    res = run(st, t_end=1e-3)
    assert res.event == "completed"
    drift = np.abs(res.trace.column("volume_correction")) * res.trace.column("perimeter")
    assert drift.max() > AREA_TOL
    A = res.trace.column("area")
    assert np.abs(A - A[0]).max() < 1e-8


def test_step_zero_velocity_identity():
    st = make_state(shapes.strip(0.5, n=64), "sd")
    out = step(st, 1e-8)
    assert np.abs(out.curve.lifts() - st.curve.lifts()).max() < 1e-12


def test_rk4_self_convergence_order():
    # the test-side RK4 reference: one step vs two half-steps vs four
    # quarter-steps (pure RK4 substeps, no resampling) measured through the
    # height over the unperturbed circle.  16 markers keep the stability cap
    # close to the physical time scale so the dt^5 local error is measurable
    # above round-off.
    base = shapes.circle(0.2, n=16)
    c0 = shapes.perturbed_circle(0.2, 5e-3, 2, n=16)
    st = make_state(c0, "ms")
    dt = 0.9 * rk4_reference.stable_dt(st)

    def advance(n_sub):
        cur = st
        out = cur.curve
        for _ in range(n_sub):
            out = rk4_reference.rk4_step(cur, dt / n_sub)
            cur = make_state(out, "ms")
        return height_function(out, base)

    p1, p2, p4 = advance(1), advance(2), advance(4)
    e12 = np.abs(p1 - p2).max()
    e24 = np.abs(p2 - p4).max()
    order = np.log2(e12 / e24)
    assert order >= 3.8


def test_rk4_time_reversal():
    # one step forward then backward returns the markers to O(dt^5)
    c0 = shapes.perturbed_circle(0.2, 5e-3, 2, n=16)
    errs = []
    for fac in (0.8, 0.4):
        st = make_state(c0, "ms")
        dt = fac * rk4_reference.stable_dt(st)
        fwd = rk4_reference.rk4_step(st, dt)
        back = rk4_reference.rk4_step(make_state(fwd, "ms"), -dt)
        errs.append(np.abs(back.lifts() - c0.lifts()).max())
    assert errs[0] < 1e-7
    assert errs[0] / errs[1] >= 20  # at least the dt^5 local-error scaling


def test_run_conservation_and_monotonicity_rk4():
    # the reference's resample-plus-volume loop conserves and dissipates too
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=96)
    st = make_state(p, "sd")
    t_end = 60 * rk4_reference.stable_dt(st)
    final, trace = rk4_reference.run(st, t_end)
    J = trace.column("J")
    A = trace.column("area")
    assert final.time == pytest.approx(t_end, rel=1e-12)
    assert len(trace) >= 61
    assert np.all(np.diff(J) <= 1e-9 * np.abs(J[:-1]))
    assert np.abs(A - A[0]).max() / A[0] < 1e-6
    assert np.all(trace.column("dissipation") >= 0)


def test_run_ms_gamma_positive_monotone():
    p = shapes.perturbed_strip(0.4, 1e-3, 1, n=64)
    params = FlowParams(dt=2e-5)
    st = make_state(p, "ms", gamma=1.0, params=params)
    res = run(st, t_end=40 * 2e-5)
    J = res.trace.column("J")
    assert res.event == "completed"
    assert np.all(np.diff(J) <= 1e-9 * np.abs(J[:-1]))
    assert res.trace.column("nonlocal")[0] > 0


def test_nonlocal_energy_only_at_records(monkeypatch):
    # the SSD stages need only V; the Dirichlet energy is computed once per record
    import torusflow.bie as bie_mod

    calls = []
    energy = bie_mod.potential_energy
    monkeypatch.setattr(bie_mod, "potential_energy", lambda *a: calls.append(1) or energy(*a))
    p = shapes.perturbed_strip(0.4, 1e-3, 1, n=64)
    params = FlowParams(dt=2e-5)
    res = run(make_state(p, "ms", gamma=1.0, params=params), t_end=2 * 2e-5)
    assert res.event == "completed"
    assert len(res.trace) == 3
    assert len(calls) == 3


def test_evaluation_computes_each_quantity_once(monkeypatch):
    # one v_E trace per evaluation whichever of D and the nonlocal energy is
    # read first; a gamma=0 MS SSD run solves one jump system per record and
    # one at each step's midpoint stage (two per step)
    import torusflow.bie as bie_mod

    potentials, jumps = [], []
    potential, solve = bie_mod.potential_trace, bie_mod.solve_jump
    monkeypatch.setattr(bie_mod, "potential_trace",
                        lambda *a, **k: potentials.append(1) or potential(*a, **k))
    monkeypatch.setattr(bie_mod, "solve_jump", lambda *a, **k: jumps.append(1) or solve(*a, **k))
    strip = shapes.perturbed_strip(0.4, 1e-3, 1, n=64)
    for order in (("nonlocal_energy", "dissipation"), ("dissipation", "nonlocal_energy")):
        potentials.clear()
        ev = Evaluation(strip, "ms", gamma=1.0)
        for name in order + order:
            getattr(ev, name)
        assert len(potentials) == 1
        assert ev.nonlocal_energy > 0
    jumps.clear()
    st = make_state(strip, "ms", params=FlowParams(dt=2e-5))
    res = run(st, t_end=3 * 2e-5)
    assert res.event == "completed" and len(res.trace) == 4
    assert len(jumps) == 1 + 3 * 2


@pytest.mark.parametrize("kind, gamma", [("ms", 0.0), ("ms", 1.0), ("sd", 0.0)],
                         ids=["ms_gamma0", "ms_gamma1", "sd"])
def test_run_evaluates_twice_per_step(monkeypatch, kind, gamma):
    # the initial record, then per step the midpoint stage and the new state's
    # record; the first stage reads the state's own evaluation
    import torusflow.flow as flow_mod

    calls = []
    evaluate = flow_mod._evaluate
    monkeypatch.setattr(flow_mod, "_evaluate", lambda *a: calls.append(1) or evaluate(*a))
    dt = 2e-5 if kind == "ms" else 1e-6
    st = make_state(shapes.perturbed_strip(0.4, 1e-3, 1, n=64), kind, gamma=gamma,
                    params=FlowParams(dt=dt))
    res = run(st, t_end=3 * dt)
    assert res.event == "completed" and len(res.trace) == 4
    assert len(calls) == 1 + 2 * 3


def test_step_same_with_cached_evaluation():
    # the first stage reads state.evaluation, built on demand or already cached
    p = shapes.perturbed_strip(0.4, 1e-3, 1, n=64)
    fresh = make_state(p, "ms", gamma=1.0)
    cached = make_state(p, "ms", gamma=1.0)
    cached.evaluation.V
    assert "eval" not in fresh.cached
    a, b = step(fresh, 2e-5).curve, step(cached, 2e-5).curve
    for la, lb in zip(a.components, b.components):
        np.testing.assert_array_equal(la.lift, lb.lift)


def test_record_reads_state_area(monkeypatch):
    # a stepped state's area check computes the area its record reads, so each
    # step computes it twice: the volume correction and the state's check
    import torusflow.flow as flow_mod
    import torusflow.geometry as geometry

    calls = []
    area = flow_mod.enclosed_area
    for module in (flow_mod, geometry):  # the state's check, the volume correction
        monkeypatch.setattr(module, "enclosed_area", lambda c: calls.append(1) or area(c))
    st = make_state(shapes.perturbed_strip(0.5, 1e-3, 1, n=64), "sd",
                    params=FlowParams(dt=5e-5))
    calls.clear()
    res = run(st, t_end=4 * 5e-5)
    assert res.event == "completed"
    assert len(calls) == 2 * 4
    assert res.trace.column("area")[-1] == area(res.state.curve) == res.state.area


def test_step_validates_the_curve_it_keeps(monkeypatch):
    # the volume correction moves the stepped curve, so the check runs after it:
    # one intersection pass and one coverage count per step, both on the kept
    # curve, and none in the new state's area check
    import torusflow.geometry as geometry

    validated, counted = [], []
    validate, check_orientation = PeriodicCurve.validate, geometry._check_orientation
    monkeypatch.setattr(PeriodicCurve, "validate", lambda c: validated.append(c) or validate(c))
    monkeypatch.setattr(
        geometry, "_check_orientation", lambda c: counted.append(c) or check_orientation(c)
    )
    st = make_state(shapes.perturbed_circle(0.2, 0.01, 3, n=64), "sd", params=FlowParams(dt=2e-6))
    validated.clear()
    counted.clear()
    new = step(st, 2e-6)
    assert new.cached["volume_correction"] != 0.0
    assert len(validated) == 1 and validated[0] is new.curve
    assert len(counted) == 1 and counted[0] is new.curve


def test_run_determinism():
    def one():
        p = shapes.perturbed_strip(0.5, 1e-3, 1, n=64)
        st = make_state(p, "sd", params=FlowParams(dt=5e-5))
        return run(st, t_end=8 * 5e-5).trace

    t1, t2 = one(), one()
    for col in ("t", "J", "area", "dissipation", "volume_correction"):
        assert np.array_equal(t1.column(col), t2.column(col))


def test_tilted_lamella_stationary_and_steppable():
    # diagonal winding (1,1): flat geodesic, stationary for both flows
    tilted = shapes.strip(0.3, angle=45, n=128)
    assert np.abs(_evaluate(make_state(tilted, "sd")).V).max() < 1e-8
    assert np.abs(_evaluate(make_state(tilted, "ms", gamma=1.0)).V).max() < 1e-7
    st = make_state(tilted, "sd", params=FlowParams(dt=1e-5))
    res = run(st, t_end=5e-5)
    assert res.event == "completed"
    assert abs(enclosed_area(res.state.curve) - 0.3) < 1e-9


def test_run_stationary_circle_energy_constant():
    st = make_state(
        shapes.circle(0.2, n=128), "sd", params=FlowParams(dt=2e-5)
    )
    res = run(st, t_end=1e-3)
    J = res.trace.column("J")
    assert res.event == "completed"
    assert np.abs(J - J[0]).max() <= 1e-9 * J[0]


def test_run_graph_failure_event():
    # reference far from the curve: the C^1 surveillance cannot see a graph
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=64)
    st = make_state(p, "sd", params=FlowParams(dt=1e-6))
    mon = StoppingMonitor(eps0=1.0, delta0=1e9, reference=shapes.circle(0.2, n=64))
    res = run(st, monitor=mon, t_end=1e-5)
    assert res.event == "graph_failure"
    assert res.reason == "GraphFailure: component count differs from reference"


def test_run_keeps_reason_of_failed_step(monkeypatch):
    # a step that raises ends the run as 'graph_failure' with the exception's
    # class and message; a clean run has no reason
    import torusflow.flow as flow_mod
    from torusflow.errors import ResolutionError

    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=64)
    st = make_state(p, "sd", params=FlowParams(dt=1e-6))
    assert run(st, t_end=2e-6).reason == ""

    def failing_step(state, dt):
        raise ResolutionError("jump system too ill-conditioned")

    monkeypatch.setattr(flow_mod, "step", failing_step)
    res = run(st, t_end=2e-6)
    assert res.event == "graph_failure"
    assert res.reason == "ResolutionError: jump system too ill-conditioned"


def test_monitor_dissipation_event():
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=64)
    st = make_state(p, "sd", params=FlowParams(dt=1e-6))
    mon = StoppingMonitor(eps0=1.0, delta0=1e-12, reference=shapes.strip(0.5, n=64))
    res = run(st, monitor=mon, t_end=1e-4)
    assert res.event == "dissipation_exceeded"
    assert res.trace.rows[-1]["event"] == "dissipation_exceeded"


def test_monitor_c1_event():
    p = shapes.perturbed_strip(0.5, 2e-3, 1, n=64)
    st = make_state(p, "sd", params=FlowParams(dt=1e-6))
    mon = StoppingMonitor(eps0=1e-4, delta0=1e9, reference=shapes.strip(0.5, n=64))
    res = run(st, monitor=mon, t_end=1e-4)
    assert res.event == "c1_exceeded"


def test_monitor_threshold_validation():
    with pytest.raises(ValueError):
        StoppingMonitor(eps0=-1.0, delta0=1.0)


def test_ssd_matches_rk4_short_horizon():
    # the flow and the test-side RK4 reference agree on a resolvable horizon
    p = shapes.perturbed_strip(0.5, 1e-3, 2, n=64)
    st_r = make_state(p, "sd")
    t_end = 30 * rk4_reference.stable_dt(st_r)
    final_r, _ = rk4_reference.run(st_r, t_end)
    st_s = make_state(p, "sd", params=FlowParams(dt=t_end / 60))
    res_s = run(st_s, t_end=t_end)
    base = shapes.strip(0.5, n=64)
    pr = height_function(final_r.curve, base)
    ps = height_function(res_s.state.curve, base)
    assert np.abs(pr - ps).max() < 1e-3 * max(np.abs(pr).max(), 1e-12) + 1e-12


def test_ssd_step_independent_of_loop_order():
    # loops of unequal n run in separate groups; listing them in the other
    # order permutes the single-layer system and nothing else
    top = shapes.perturbed_strip(0.5, 1e-3, 1, n=96, which="both").components[1]
    bottom = shapes.perturbed_strip(0.5, 1e-3, 1, n=64, which="both").components[0]
    curve, swapped = PeriodicCurve([bottom, top]), PeriodicCurve([top, bottom])
    new = step(make_state(curve, "ms"), 1e-4).curve.components
    new_swapped = step(make_state(swapped, "ms"), 1e-4).curve.components
    assert [lp.n for lp in new] == [64, 96]
    for a, b in zip(new, new_swapped[::-1]):
        np.testing.assert_array_equal(a.winding, b.winding)
        assert np.abs(a.lift - b.lift).max() < 1e-13


def test_snapshots_collected():
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=64)
    st = make_state(p, "sd", params=FlowParams(dt=5e-5))
    res = run(st, t_end=10 * 5e-5, snapshot_every=4)
    assert len(res.snapshots) == 2


@pytest.mark.parametrize(
    "kind, gamma, dt", [("ms", 10.0, 5e-5), ("ms", 0.0, 5e-5), ("sd", 0.0, 1e-6)],
    ids=["ms_gamma10", "ms_gamma0", "sd"],
)
def test_winding_loops_with_drifting_first_marker_run(kind, gamma, dt):
    # the cosine perturbation moves the first marker of each winding loop off
    # the lattice, so the seam segments' shared endpoint comes back off by an ulp
    base = shapes.lamella(1, h=0.5, n_per_loop=64)
    curve = shapes.graph_over(base, 1e-3 * np.cos(2 * np.pi * base.markers()[:, 0]))
    res = run(make_state(curve, kind, gamma=gamma, params=FlowParams(dt=dt)), t_end=4 * dt)
    assert res.event == "completed", res.reason
    assert len(res.trace) == 5


@pytest.mark.parametrize(
    "curve, kind, gamma, t_end",
    [
        (shapes.perturbed_circle(0.2, 5e-3, 3, n=64), "sd", 0.0, 2e-5),
        (shapes.perturbed_circle(0.2, 5e-3, 3, n=64), "ms", 0.0, 2e-4),
        (shapes.perturbed_strip(0.5, 1e-3, 1, n=64, which="both"), "ms", 10.0, 4e-3),
    ],
    ids=["sd_circle", "ms_circle", "ms_strip_gamma10"],
)
def test_ssd_second_order_in_time(curve, kind, gamma, t_end):
    # self-convergence of the final lifts against 128 steps as the step halves
    def final_lifts(steps):
        state = make_state(curve, kind, gamma=gamma)
        for _ in range(steps):
            state = step(state, t_end / steps)
        return state.curve.lifts()

    ref = final_lifts(128)
    errs = [np.abs(final_lifts(n) - ref).max() for n in (8, 16, 32, 64)]
    orders = np.log2(np.divide(errs[:-1], errs[1:]))
    assert orders[0] >= 1.8 and orders[1] >= 1.8, orders


def test_ms_gamma_positive_run_converges_in_marker_count():
    # a short gamma > 0 MS run of the mode-1 strip at 2x48, 2x96 and 2x192
    # markers.  The perturbation is one Fourier mode, so the traces agree to
    # round-off already at 48 per interface (measured: J to 4.7e-14 at 2x48 and
    # 1.6e-14 at 2x96, the dissipation to 1.3e-14 relative); every run takes its
    # 20 fixed steps, so the advective cap never binds and the runs compare at
    # the same times
    dt = 1e-4
    J, D = {}, {}
    for n in (48, 96, 192):
        curve = shapes.perturbed_strip(0.5, 1e-2, 1, n=n, which="both")
        res = run(make_state(curve, "ms", gamma=10.0, params=FlowParams(dt=dt)), t_end=20 * dt)
        assert res.event == "completed" and len(res.trace) == 21, (n, res.reason)
        J[n], D[n] = res.trace.column("J"), res.trace.column("dissipation")
    for n in (48, 96):
        assert np.abs(J[n] - J[192]).max() < 1e-13, n
        assert np.abs(D[n] - D[192]).max() < 1e-11 * np.abs(D[192]).max(), n


@pytest.mark.parametrize(
    "k, dt, rate_oracle, gamma, steps",
    [
        pytest.param(2, 1e-3, 40.0, 10.0, 120, id="2-0.001-40.0"),
        pytest.param(3, 2e-3, 20.0, 10.0, 120, id="3-0.002-20.0"),
        # slow at small gamma: t = 3 is 3.5 decay times of 4 - 2 sqrt 2
        pytest.param(4, 5e-2, 4.0 - 2.0 * np.sqrt(2.0), 1.0, 60, id="4-0.05-1.171573"),
    ],
)
def test_ms_lamella_shift_decays_at_oracle_rate(k, dt, rate_oracle, gamma, steps):
    # gamma > 0 against an independent closed form: the k-strip lamella perturbed
    # by a rigid-shift eigenvector of its slowest nonzero rate
    # (oracles.lamella_shift_rates); that rate is doubly degenerate at k = 2, 3, 4
    n = 64
    rates, vecs = oracles.lamella_shift_rates(k, 0.5, gamma)
    lam, v = rates[1], vecs[:, 1]
    assert lam == pytest.approx(rate_oracle, rel=1e-12)
    base = shapes.lamella(k, h=0.5, n_per_loop=n)
    curve = shapes.graph_over(base, 1e-3 * np.repeat(v, n))
    res = run(make_state(curve, "ms", gamma=gamma, params=FlowParams(dt=dt)),
              t_end=steps * dt, snapshot_every=1)
    assert res.event == "completed", res.reason
    sign = np.array([nu[:, 1].mean() for nu in base.split(base.normals())])
    y0 = np.array([lp.lift[:, 1].mean() for lp in base.components])

    def shifts(c):  # outward shift of each flat interface
        return sign * (np.array([lp.lift[:, 1].mean() for lp in c.components]) - y0)

    # the amplitude of v when the shifts are expanded in the oracle's eigenvectors
    t = np.array([s for s, _ in res.snapshots])
    amp = [np.linalg.lstsq(vecs, shifts(c), rcond=None)[0][1] for _, c in res.snapshots]
    rate, r2 = fit_exponential(t, amp, window=(0.5 / lam, np.inf))
    assert rate == pytest.approx(lam, rel=1e-2), rate
    assert r2 > 0.999
