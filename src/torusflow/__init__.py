"""torusflow: Mullins-Sekerka and surface diffusion flows on the flat 2-torus.

A desk-scale numerical laboratory for two volume-preserving geometric flows
driven by the sharp-interface Ohta-Kawasaki energy

    J(E) = Per(E) + gamma * int |D v_E|^2,   -Lap v_E = u_E - mean(u_E),

together with a second-variation stability toolkit (criticality residuals,
spectra on the zero-average space, translation-mode handling) and runtime
diagnostics for the energy identities and exponential-decay predictions.
"""

from .errors import (
    ConfigError,
    GraphFailure,
    OrientationError,
    ResolutionError,
    SingularityError,
    TopologyError,
    TorusflowError,
)
from .geometry import (
    MarkerLoop,
    PeriodicCurve,
    arclength_derivative,
    curvature,
    enclosed_area,
    height_function,
    perimeter,
    resample_equal_arclength,
    signed_distance_grid,
    surface_laplacian,
)

__all__ = [
    "ConfigError",
    "GraphFailure",
    "OrientationError",
    "ResolutionError",
    "SingularityError",
    "TopologyError",
    "TorusflowError",
    "MarkerLoop",
    "PeriodicCurve",
    "arclength_derivative",
    "curvature",
    "enclosed_area",
    "height_function",
    "perimeter",
    "resample_equal_arclength",
    "signed_distance_grid",
    "surface_laplacian",
]

__version__ = "0.1.0"
