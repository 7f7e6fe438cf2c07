"""Linearized dispersion relations of a flat interface under both flows.

Mode-k graphs over a lamellar interface decay at closed-form rates:

    surface diffusion (local):       lambda = (2 pi k)^4
    Mullins-Sekerka (strip of h):    lambda = (2 pi k)^3 (alpha -+ beta),
        alpha = coth(2 pi k h) + coth(2 pi k (1-h)),
        beta  = csch(2 pi k h) + csch(2 pi k (1-h)),

where the two Mullins-Sekerka branches pair the interface displacements
(both outward = slow, opposite = fast).  The runs below fit the modal
amplitude of the height function and land within a fraction of a percent.
Each run takes 40 SSD steps of 0.1/lambda, four decay times in all.

Run:  python demos/dispersion_relations.py
"""

import numpy as np

from torusflow import shapes
from torusflow.diagnostics import fit_exponential
from torusflow.flow import FlowParams, make_state, step
from torusflow.geometry import height_function


def modal_fit(kind, mode, which, rate, n=128, steps=40):
    ref = shapes.strip(0.5, n=n)
    x = ref.markers()[:, 0]
    sl = ref.loop_slices()[1]
    state = make_state(
        shapes.perturbed_strip(0.5, 1e-3, mode, n=n, which=which),
        kind,
        params=FlowParams(dt=0.1 / rate),
    )
    ts, amps = [0.0], []
    amps.append(
        2 * np.mean(height_function(state.curve, ref)[sl] * np.sin(2 * np.pi * mode * x[sl]))
    )
    for _ in range(steps):
        state = step(state, 0.1 / rate)
        ts.append(state.time)
        amps.append(
            2 * np.mean(height_function(state.curve, ref)[sl] * np.sin(2 * np.pi * mode * x[sl]))
        )
    fitted, _ = fit_exponential(np.array(ts), np.abs(amps))
    return fitted


print("surface diffusion, single interface:")
for k in (1, 2, 3):
    oracle = (2 * np.pi * k) ** 4
    fitted = modal_fit("sd", k, "top", oracle)
    print(f"  k={k}:  fitted {fitted:12,.1f}   (2 pi k)^4 = {oracle:12,.1f}   "
          f"ratio {fitted / oracle:.5f}")

print("Mullins-Sekerka, strip h = 1/2, slow branch (both interfaces outward):")
for k in (1, 2):
    q = 2 * np.pi * k
    alpha = 1 / np.tanh(q * 0.5) + 1 / np.tanh(q * 0.5)
    beta = 1 / np.sinh(q * 0.5) + 1 / np.sinh(q * 0.5)
    oracle = q**3 * (alpha - beta)
    fitted = modal_fit("ms", k, "both", oracle)
    print(f"  k={k}:  fitted {fitted:12,.1f}   oracle = {oracle:12,.1f}   "
          f"ratio {fitted / oracle:.5f}")
