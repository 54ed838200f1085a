"""Self-similar and spiral solutions of the binormal flow.

Numerical laboratory for the vortex-filament (binormal) flow: Frenet-frame
integration, the one-parameter self-similar family and its corner-angle law,
the second-order complex reduction recovering frames, a spectral solver for
the associated cubic Schrodinger equations, rotating (spiral) profiles, and
reconstruction of flows from curvature/torsion data, including the
corner-stability experiment.

All operations are pure: results depend only on the arguments, so parameter
sweeps parallelize trivially.
"""

from . import flow, geometry, nls, selfsimilar, spiral, theta
from .errors import FilamentError
from .geometry import Curve, FrenetFrame, IntrinsicData

__all__ = [
    "flow",
    "geometry",
    "nls",
    "selfsimilar",
    "spiral",
    "theta",
    "FilamentError",
    "Curve",
    "FrenetFrame",
    "IntrinsicData",
]

__version__ = "0.1.0"
