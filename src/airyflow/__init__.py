"""Pseudo-spectral evolution of closed planar curves under Airy flow.

Curves move with normal velocity -k_s and tangential velocity k^2/2,
which preserves both total length and the equal-arc-length
parametrization.  The tangent angle's periodic deviation is advanced in
Fourier space by non-stiff integrators, and solutions of the mKdV
equation k_t = k_sss + (3/2) k^2 k_s are recovered from the curvature.
"""

from . import diagnostics, geometry, harness, schemes, spectral
from .errors import AiryflowError
from .geometry import ThetaLState
from .harness import ConvergenceStudyConfig, RunConfig, parse_config, preset_config
from .schemes import SchemeConfig, integrate

__all__ = [
    "AiryflowError",
    "ConvergenceStudyConfig",
    "RunConfig",
    "SchemeConfig",
    "ThetaLState",
    "diagnostics",
    "geometry",
    "harness",
    "integrate",
    "parse_config",
    "preset_config",
    "schemes",
    "spectral",
]

__version__ = "0.1.0"
