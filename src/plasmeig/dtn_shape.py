"""Shape derivative of the Dirichlet-to-Neumann operators on plane curves.

For a normal perturbation field a(t) the derivative of the interior
operator acts on boundary data g as

    dN g = -d/ds (a dg/ds) + kappa a (N g) - N (a (N g)),

with kappa the signed curvature and d/ds the arclength derivative; the
exterior operator obeys the same formula with its own N. The derivative is
validated against transplanted operators on perturbed curves by finite
differences in the weighted operator norm over a resolved frequency band.
Its expected first-order (not second-order) growth in frequency, which
distinguishes it from a generic second-order operator, is checked in the
test suite.

Transplantation uses exact image nodes: the perturbed curve is sampled at
the images x(t) + h a(t) n(t) of the base nodes, so the resulting matrix
acts directly on base node values and operator differences make sense
entrywise.
"""

import math

import numpy as np
import scipy.linalg

from .bem2d import build_dtn
from .curve2d import perturbed_sample, sample_curve, spectral_diff_matrix
from .errors import ConfigError


def band_domain(weights, t, max_degree):
    """sqrt(weights) and a basis, orthonormal in <f, g> = sum f g weights,
    of the trigonometric polynomials of degree at most max_degree on the
    nodes t: the (root, domain) pair that banded_opnorm takes.

    Unresolved frequencies near the grid Nyquist carry discretization
    aliasing of size O(n^2) that has nothing to do with the operators being
    compared, so convergence statements are measured on a band the grid
    genuinely resolves.
    """
    n = len(t)
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    for l in range(1, max_degree + 1):
        cols.append(np.cos(l * t) * math.sqrt(2.0 / n))
        if l < n // 2:
            cols.append(np.sin(l * t) * math.sqrt(2.0 / n))
    basis = np.array(cols).T
    root = np.sqrt(np.asarray(weights, dtype=float))
    _, r = np.linalg.qr(root[:, None] * basis)
    return root, scipy.linalg.solve_triangular(r, basis.T, trans="T").T


def banded_opnorm(mat, band):
    """Weighted operator norm of mat restricted to the inputs spanned by
    band = band_domain(weights, t, max_degree)."""
    root, domain = band
    return float(scipy.linalg.svdvals(root[:, None] * (mat @ domain))[0])


# the DtN pair attribute that holds each side's operator
_SIDES = {"interior": "nminus", "exterior": "nplus"}


def shape_derivative_matrix(dtn, a, side="interior"):
    """Matrix of the shape derivative on node values."""
    if side not in _SIDES:
        raise ConfigError("dtn_shape", "shape_derivative_matrix",
                          "side must be 'interior' or 'exterior'",
                          "side=%r" % (side,))
    sample = dtn.sample
    nmat = getattr(dtn, _SIDES[side])
    a_vals = a.value(sample.t)
    tmat = spectral_diff_matrix(sample.n) / sample.speed[:, None]
    an = a_vals[:, None] * nmat
    return (-tmat @ (a_vals[:, None] * tmat)
            + sample.curvature[:, None] * an - nmat @ an)


def loglog_slope(h_list, errors, floors):
    """Least-squares slope of log(errors) against log(h_list) over the steps
    whose error exceeds its floor (one per step, or one for all), or None
    when fewer than two do: errors at the roundoff floor of an identically
    zero deformation leave no slope to fit."""
    keep = np.asarray(errors) > floors
    if np.count_nonzero(keep) < 2:
        return None
    return float(np.polyfit(np.log(h_list)[keep], np.log(errors)[keep], 1)[0])


def _step_errors(dtn, plus, minus, h, dmats, band):
    """One-sided and central errors of the step h, per side, from the base
    pair and the pairs shifted by +h and -h."""
    errors = {}
    for side, attr in _SIDES.items():
        n0, up, down = (getattr(pair, attr) for pair in (dtn, plus, minus))
        errors[side] = (
            banded_opnorm((up - n0) / h - dmats[side], band),
            banded_opnorm((up - down) / (2.0 * h) - dmats[side], band))
    return errors


def fd_operator_check(curve, a, n, h_list):
    """Finite-difference consistency of the shape derivative in operator
    norm over trigonometric inputs of degree at most n // 4, for the
    interior and the exterior operator.

    Each shifted curve perturbed_sample(curve, a, +-h, n) is assembled once,
    its DtN pair serves both sides, and the pairs of one step are released
    before the next step is built. Returns {"interior": report,
    "exterior": report}, each with one-sided and central errors per step and
    the fitted log-log slopes (expected near 1 and 2).
    """
    if len(h_list) < 2:
        raise ConfigError("dtn_shape", "fd_operator_check",
                          "at least two step sizes are required",
                          "h_list=%r" % (h_list,))
    max_degree = n // 4
    dtn = build_dtn(sample_curve(curve, n))
    band = band_domain(dtn.sample.weights, dtn.sample.t, max_degree)
    dmats = {side: shape_derivative_matrix(dtn, a, side) for side in _SIDES}
    steps = [_step_errors(dtn, build_dtn(perturbed_sample(curve, a, h, n)),
                          build_dtn(perturbed_sample(curve, a, -h, n)),
                          h, dmats, band)
             for h in h_list]
    reports = {}
    for side in _SIDES:
        one_sided = [step[side][0] for step in steps]
        central = [step[side][1] for step in steps]
        reports[side] = {
            "curve": curve.to_config(), "a": a.to_config(),
            "n": n, "side": side, "band": max_degree,
            "h_list": [float(h) for h in h_list],
            "one_sided_errors": [float(e) for e in one_sided],
            "central_errors": [float(e) for e in central],
            "max_errors": [float(max(o, c))
                           for o, c in zip(one_sided, central)],
            "slopes": {"one_sided": loglog_slope(h_list, one_sided, 1e-13),
                       "central": loglog_slope(h_list, central, 1e-13)}}
    return reports
