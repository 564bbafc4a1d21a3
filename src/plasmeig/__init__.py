"""Plasmonic eigenvalues of smooth domains via Dirichlet-to-Neumann
operators, with first- and second-order shape perturbation theory.

Submodules import lazily so that the CLI can pin linear-algebra thread
counts through the environment before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "PlasmeigError": ".errors",
    "ConfigError": ".errors",
    "NumericalError": ".errors",
    "CurveParam": ".curve2d",
    "ShapeFn2D": ".curve2d",
    "CurveSample": ".curve2d",
    "sample_curve": ".curve2d",
    "perturbed_sample": ".curve2d",
    "DtNPair": ".bem2d",
    "build_dtn": ".bem2d",
    "compute_g0": ".bem2d",
    "farfield_log_coefficient": ".bem2d",
    "PlasmonicSpectrum": ".spectrum2d",
    "solve_plasmonic": ".spectrum2d",
    "np_route": ".spectrum2d",
    "rayleigh": ".spectrum2d",
    "criticality_residual": ".spectrum2d",
    "SHField": ".sphere3d",
    "SphereGrid": ".sphere3d",
    "sphere_grid": ".sphere3d",
    "ball_spectrum": ".sphere3d",
    "q1_matrix": ".perturb",
    "solve_udot": ".perturb",
    "epsddot": ".perturb",
    "epsddot_flux_route": ".perturb",
    "epsdot_2d": ".perturb",
    "uniform_shape": ".perturb",
    "shape_derivative": ".dtn_shape",
    "fd_operator_check": ".dtn_shape",
    "run_all": ".validate",
}


def __getattr__(name):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
