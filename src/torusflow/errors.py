"""Exception types shared across the package."""


class TorusflowError(Exception):
    """Base class for all package-specific failures."""


class TopologyError(TorusflowError):
    """Curve is self-intersecting, loops collide, or marker order degenerated."""


class ResolutionError(TorusflowError):
    """Too few markers, or a linear system is too ill-conditioned at this resolution."""


class OrientationError(TorusflowError):
    """Loop orientations do not bound a phase: windings not null-homologous, or
    a coverage count spanning more than two values; an area not in (0,1) arises
    only for a degenerate curve, whose line integrals sum to an integer."""


class GraphFailure(TorusflowError):
    """Curve is not a normal graph over the reference within the tubular radius.

    Raised by height-function extraction; flow runs convert it into a
    'graph_failure' stopping event rather than crashing.
    """


class SingularityError(TorusflowError):
    """Green kernel evaluated at coincident points."""


class ConfigError(TorusflowError):
    """Malformed or inconsistent scenario configuration."""
