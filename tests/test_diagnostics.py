"""Energy accounting, identities, distances, fits, Sobolev norms."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from torusflow import bie, flow, shapes
from torusflow.diagnostics import (
    discrete_sobolev_norm,
    fit_exponential,
    verify_first_identity,
    verify_second_identity_ms,
    verify_second_identity_sd,
)
from torusflow.fields import asymmetry_distance
from torusflow.flow import EnergyTrace, Evaluation


def energy(curve, gamma):
    """(J, perimeter, nonlocal contribution gamma*int|Dv_E|^2) of the MS evaluation."""
    ev = Evaluation(curve, "ms", gamma)
    return ev.perimeter + ev.nonlocal_energy, ev.perimeter, ev.nonlocal_energy


def _fresh_interpreter(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_layering_flow_below_diagnostics():
    # geometry <- bie <- flow <- variation <- diagnostics <- cli, and
    # geometry <- fields with nothing above it: the diagnostics import on their
    # own, the flow pulls in neither variation nor diagnostics, and no module
    # of the package loads the grid module fields
    assert _fresh_interpreter("import torusflow.diagnostics; print('ok')") == "ok"
    code = (
        "import sys, torusflow.flow; "
        "print([m for m in ('torusflow.variation', 'torusflow.diagnostics') if m in sys.modules])"
    )
    assert _fresh_interpreter(code) == "[]"
    for module in ("bie", "flow", "variation", "diagnostics", "cli"):
        code = f"import sys, torusflow.{module}; print('torusflow.fields' in sys.modules)"
        assert _fresh_interpreter(code) == "False", module


def test_energy_values():
    j, per, nl = energy(shapes.strip(0.3, n=128), 0.0)
    assert j == per == pytest.approx(2.0, abs=1e-12) and nl == 0.0
    j1, _, nl1 = energy(shapes.strip(0.3, n=128), 1.0)
    assert nl1 == pytest.approx(oracles.strip_dirichlet_energy(0.3), rel=1e-3)
    assert j1 == pytest.approx(2.0 + oracles.strip_dirichlet_energy(0.3), rel=1e-4)
    j2, _, _ = energy(shapes.circle(0.2, n=128), 0.0)
    assert j2 == pytest.approx(0.4 * np.pi, rel=1e-12)


def _synthetic_trace(tfun, dfun, n=20, dt=1e-3):
    tr = EnergyTrace()
    for i in range(n):
        t = i * dt
        tr.append_row({"t": t, "J": tfun(t), "dissipation": dfun(t), "area": 0.5})
    return tr


def test_first_identity_exact_exponential():
    lam = 7.0
    # J whose derivative is exactly -D: J = e^{-lam t}, D = lam e^{-lam t}
    tr = _synthetic_trace(lambda t: np.exp(-lam * t), lambda t: lam * np.exp(-lam * t))
    out = verify_first_identity(tr)
    # centered difference of an exponential: residual ~ (lam dt)^2 / 6
    assert out["median"] < (lam * 1e-3) ** 2
    assert np.isfinite(tr.rows[1]["identity1_residual"])


def test_first_identity_stationary_floor():
    tr = _synthetic_trace(lambda t: 2.0, lambda t: 0.0)
    out = verify_first_identity(tr)
    assert out["max"] == 0.0


def test_second_identity_ms_trivial_circle():
    rep = verify_second_identity_ms(shapes.circle(0.2, n=128), gamma=0.0)
    assert abs(rep.lhs) < 1e-10 and abs(rep.rhs) < 1e-10


def test_second_identity_ms_perturbed():
    c = shapes.perturbed_circle(0.2, 1e-3, 2, n=256)
    rep = verify_second_identity_ms(c, gamma=0.0)
    assert rep.relative_residual < 0.05
    assert rep.terms["dissipation"] > 0


def test_ms_identity_check_computes_three_potentials(monkeypatch):
    # the base curve's v_E trace serves its datum and its criticality
    # residual; each of the two advanced curves needs one more
    original, calls = bie.potential_trace, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bie, "potential_trace", counted)
    verify_second_identity_ms(shapes.perturbed_strip(0.4, 1e-2, 1, n=96), gamma=5.0)
    assert len(calls) == 3


def test_first_identity_converges_at_positive_gamma():
    # the grid-free J and D carry no grid floor, so the centered -dJ/dt meets
    # D at the second-order rate of the difference, as at gamma = 0
    medians = []
    for dt in (2.2e-4, 1.1e-4):
        st = flow.make_state(shapes.perturbed_strip(0.4, 1e-3, 1, n=96), "ms", gamma=10.0,
                             params=flow.FlowParams(dt=dt))
        res = flow.run(st, t_end=10 * 2.2e-4)
        assert res.event == "completed"
        medians.append(verify_first_identity(res.trace)["median"])
    assert 3.5 <= medians[0] / medians[1] <= 4.5, medians


def test_second_identity_sd_perturbed():
    p = shapes.perturbed_strip(0.5, 1e-3, 1, n=256)
    rep = verify_second_identity_sd(p)
    assert rep.relative_residual < 0.05


def test_second_identity_scaling_homogeneity():
    vals = []
    for eps in (1e-3, 5e-4):
        c = shapes.perturbed_circle(0.2, eps, 2, n=128)
        rep = verify_second_identity_ms(c, gamma=0.0)
        vals.append(abs(rep.rhs))
    assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.1)


def test_second_identity_refinement():
    # residuals drop at order >= 1 when markers and the virtual-step fraction
    # refine together (the centered difference is the resolution-limiting part)
    res_ms, res_sd = [], []
    for n, fs in ((64, 8e-3), (128, 4e-3), (256, 2e-3)):
        c = shapes.perturbed_circle(0.2, 1e-2, 3, n=n)
        res_ms.append(verify_second_identity_ms(c, gamma=0.0, fd_scale=fs).relative_residual)
        res_sd.append(verify_second_identity_sd(c, fd_scale=fs).relative_residual)
    for seq in (res_ms, res_sd):
        orders = [np.log2(seq[i] / seq[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0


def test_asymmetry_distance_cases():
    c = shapes.circle(0.2, (0.5, 0.5), n=128)
    d, sd = asymmetry_distance(c, c, grid_n=256)
    assert d == 0.0 and sd == 0.0
    c2 = shapes.circle(0.2, (0.8, 0.5), n=128)
    d2, sd2 = asymmetry_distance(c2, c, grid_n=512)
    assert sd2 == pytest.approx(oracles.circle_lens_sym_diff(0.2, 0.3), abs=1e-3)
    assert d2 > 0
    # coarea-style bound |E Delta F| <= C sqrt(D): report the constant only
    assert sd2 / np.sqrt(d2) < 10.0


def test_fit_exponential_exact_and_invariances():
    t = np.linspace(0, 1, 50)
    y = 3.0 * np.exp(-4.2 * t)
    c0, r2 = fit_exponential(t, y)
    assert c0 == pytest.approx(4.2, abs=1e-10) and r2 > 1 - 1e-12
    c0s, _ = fit_exponential(t, 7.5 * y)
    assert c0s == pytest.approx(c0, abs=1e-12)
    c0w, _ = fit_exponential(t, y, window=(0.3, 0.9))
    assert c0w == pytest.approx(4.2, abs=1e-10)
    c0c, _ = fit_exponential(t, np.full_like(t, 2.0))
    assert abs(c0c) < 1e-12
    with pytest.raises(ValueError):
        fit_exponential(t, y - 2.0)


def test_sobolev_norm_single_mode():
    ref = shapes.strip(0.5, n=128)
    x = ref.markers()[:, 0]
    sl = ref.loop_slices()
    a = 1e-3
    psi = np.zeros(ref.n_markers)
    psi[sl[1]] = a * np.sin(2 * np.pi * x[sl[1]])
    for s in (1.0, 2.5, 3.0):
        expect = np.sqrt(a**2 * (1 + 4 * np.pi**2) ** s / 2)
        got = discrete_sobolev_norm(psi, ref, s)
        assert got == pytest.approx(expect, rel=1e-10)
    assert discrete_sobolev_norm(np.zeros(ref.n_markers), ref, 2.5) == 0.0
    n1 = discrete_sobolev_norm(psi, ref, 1.0)
    n3 = discrete_sobolev_norm(psi, ref, 3.0)
    assert n3 > n1  # monotone in the order


def test_trace_csv_roundtrip(tmp_path):
    tr = _synthetic_trace(lambda t: 2 - t, lambda t: 1.0, n=5)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    tr2 = EnergyTrace.from_csv(path)
    np.testing.assert_allclose(tr2.column("t"), tr.column("t"), atol=0)
    np.testing.assert_allclose(tr2.column("J"), tr.column("J"), atol=0)
