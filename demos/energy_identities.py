"""The two energy identities along the flows, checked numerically.

Along either flow the energy J = perimeter + gamma * int |Dv_E|^2 obeys

    dJ/dt = -D,     D = int |Dw|^2   (Mullins-Sekerka)
                    D = int |D_tau H|^2   (surface diffusion),

and differentiating the dissipation itself exposes the second-variation
quadratic form plus cubic remainders.  The first identity is verified along a
trajectory of SSD steps (centered differences of the recorded energies); the
second at a frozen state, with the left side obtained from two virtually
advanced curves.  Residuals here sit many orders below the few-percent level the
tolerances ask for.

Run:  python demos/energy_identities.py
"""

import numpy as np

from torusflow import shapes
from torusflow.diagnostics import (
    verify_first_identity,
    verify_second_identity_ms,
    verify_second_identity_sd,
)
from torusflow.flow import EnergyTrace, FlowParams, _record, make_state, step

# first identity along a surface diffusion trajectory
dt = 6.4e-5
state = make_state(
    shapes.perturbed_strip(0.5, 1e-3, 1, n=128),
    "sd",
    params=FlowParams(dt=dt),
)
trace = EnergyTrace()
_record(state, trace, None)
for _ in range(60):
    state = step(state, dt)
    _record(state, trace, None)
first = verify_first_identity(trace)
print(f"first identity (sd trajectory): median residual {first['median']:.2e}, "
      f"max {first['max']:.2e}")

# second identities at perturbed critical sets
rep_ms = verify_second_identity_ms(shapes.perturbed_circle(0.2, 1e-3, 2, n=512), gamma=0.0)
print("second identity, nonlocal flow (perturbed disk):")
print(f"  lhs={rep_ms.lhs:+.6e}  rhs={rep_ms.rhs:+.6e}  "
      f"rel residual={rep_ms.relative_residual:.2e}")
for name, val in rep_ms.terms.items():
    print(f"    {name:18s} {val:+.6e}")

rep_sd = verify_second_identity_sd(shapes.perturbed_strip(0.5, 1e-3, 1, n=512))
print("second identity, surface diffusion (perturbed lamella):")
print(f"  lhs={rep_sd.lhs:+.6e}  rhs={rep_sd.rhs:+.6e}  "
      f"rel residual={rep_sd.relative_residual:.2e}")
for name, val in rep_sd.terms.items():
    print(f"    {name:18s} {val:+.6e}")

# the cubic remainders collapse one order further in 2D: on a closed curve
# int (H_s)^2 H_ss ds is a perfect derivative, so the leading kappa0-weighted
# surface diffusion remainder vanishes identically
eps_list = (4e-3, 2e-3, 1e-3)
mags = []
for eps in eps_list:
    c = shapes.perturbed_circle(0.2, eps, 2, n=256)
    r = verify_second_identity_sd(c)
    mags.append(abs(r.terms["second_fundamental"] + r.terms["curvature_cubic"]))
slope = np.polyfit(np.log(eps_list), np.log(mags), 1)[0]
print(f"surface diffusion cubic remainder scales like eps^{slope:.2f} "
      "(one order below would be eps^3; the 2D cancellation gives eps^4)")
