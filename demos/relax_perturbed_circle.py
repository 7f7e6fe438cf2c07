"""Asymptotic stability of the disk under both flows.

A disk of radius 0.2 is strictly stable (its second-variation gap on the
space orthogonal to translations is 3/r^2 = 75).  Perturb it with the
slowest stable mode, cos(2 theta), and both the Mullins-Sekerka and the
surface diffusion flow relax it back exponentially.  The dissipation decays
at exactly twice the modal rate, and the fitted rates land within a couple
percent of the closed forms

    lambda_MS = 2 k (k^2 - 1) / r^3,      lambda_SD = k^2 (k^2 - 1) / r^4.

The flow steps with its one integrator, the small-scale decomposition (SSD):
the stiff leading symbol is propagated exactly, so dt (3e-5 and 2e-6) is set
by the decay time scale 1/lambda, not by an explicit stability limit.

Run:  python demos/relax_perturbed_circle.py
"""

from torusflow import shapes
from torusflow.diagnostics import discrete_sobolev_norm, fit_exponential
from torusflow.flow import FlowParams, StoppingMonitor, make_state, run
from torusflow.geometry import enclosed_area, height_function
from torusflow.svgplot import line_plot

R, EPS, MODE = 0.2, 5e-3, 2

reference = shapes.circle(R, n=256)
initial = shapes.with_area(
    shapes.perturbed_circle(R, EPS, MODE, n=256), enclosed_area(reference)
)
monitor = StoppingMonitor(eps0=0.5, delta0=100.0, reference=reference)

rates = {"ms": 2 * MODE * (MODE**2 - 1) / R**3, "sd": MODE**2 * (MODE**2 - 1) / R**4}
traces = {}
for kind in ("ms", "sd"):
    lam = rates[kind]
    dt = {"ms": 3e-5, "sd": 2e-6}[kind]
    state = make_state(initial, kind, params=FlowParams(dt=dt))
    result = run(state, monitor=monitor, t_end=10.0 / lam)
    t = result.trace.column("t")
    d = result.trace.column("dissipation")
    c0, r2 = fit_exponential(t[d > 1e-8 * d[0]], d[d > 1e-8 * d[0]])
    psi = height_function(result.state.curve, reference)
    norm = discrete_sobolev_norm(psi, reference, 2.5 if kind == "ms" else 3.0)
    traces[kind] = (t, d)
    print(
        f"{kind}: event={result.event}  fitted c0={c0:,.1f}  "
        f"2*lambda={2 * lam:,.1f}  ratio={c0 / (2 * lam):.4f}  final |psi| norm={norm:.2e}"
    )

line_plot(
    "relax_perturbed_circle.svg",
    [traces["ms"][0] * rates["ms"], traces["sd"][0] * rates["sd"]],
    [traces["ms"][1] / traces["ms"][1][0], traces["sd"][1] / traces["sd"][1][0]],
    ["ms (t in 1/lambda)", "sd (t in 1/lambda)"],
    "normalized dissipation decay of a perturbed disk",
    "lambda * t",
    "log10 D/D0",
    logy=True,
)
print("wrote relax_perturbed_circle.svg")
