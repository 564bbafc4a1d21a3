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


def _band_basis(t, max_degree):
    n = len(t)
    cols = [np.full(n, 1.0 / math.sqrt(n))]
    for l in range(1, max_degree + 1):
        cols.append(np.cos(l * t) * math.sqrt(2.0 / n))
        if l < n // 2:
            cols.append(np.sin(l * t) * math.sqrt(2.0 / n))
    return np.array(cols).T


def banded_opnorm(mat, weights, t, max_degree):
    """Weighted operator norm of mat restricted to trigonometric inputs of
    degree at most max_degree.

    Unresolved frequencies near the grid Nyquist carry discretization
    aliasing of size O(n^2) that has nothing to do with the operators being
    compared, so convergence statements are measured on a band the grid
    genuinely resolves.
    """
    root = np.sqrt(np.asarray(weights, dtype=float))
    basis = _band_basis(t, max_degree)
    _, r = np.linalg.qr(root[:, None] * basis)
    domain = scipy.linalg.solve_triangular(r, basis.T, trans="T").T
    return float(scipy.linalg.svdvals(root[:, None] * (mat @ domain))[0])


def _side_operator(dtn, side):
    if side == "interior":
        return dtn.nminus
    if side == "exterior":
        return dtn.nplus
    raise ConfigError("dtn_shape", "side",
                      "side must be 'interior' or 'exterior'",
                      "side=%r" % (side,))


def shape_derivative_matrix(dtn, a, side="interior"):
    """Matrix of the shape derivative on node values."""
    sample = dtn.sample
    nmat = _side_operator(dtn, side)
    a_vals = a.value(sample.t)
    tmat = spectral_diff_matrix(sample.n) / sample.speed[:, None]
    an = a_vals[:, None] * nmat
    return (-tmat @ (a_vals[:, None] * tmat)
            + sample.curvature[:, None] * an - nmat @ an)


def transplanted_dtn(curve, a, h, n, side="interior"):
    """Matrix of the DtN operator of the curve shifted by h*a along its
    normal, assembled on the exact images of the n base nodes."""
    dtn = build_dtn(perturbed_sample(curve, a, h, n))
    return _side_operator(dtn, side)


def loglog_slope(h_list, errors):
    """Least-squares slope of log(errors) against log(h_list), or None when
    every error is below 1e-13: an identically zero deformation leaves no
    slope to fit."""
    if max(errors) < 1e-13:
        return None
    return float(np.polyfit(np.log(h_list), np.log(errors), 1)[0])


def fd_operator_check(curve, a, n, h_list, side="interior"):
    """Finite-difference consistency of the shape derivative in operator
    norm over trigonometric inputs of degree at most n // 4.

    Returns a report with one-sided and central errors per step and the
    fitted log-log slopes (expected near 1 and 2).
    """
    if len(h_list) < 2:
        raise ConfigError("dtn_shape", "fd_operator_check",
                          "at least two step sizes are required",
                          "h_list=%r" % (h_list,))
    band = n // 4
    base_sample = sample_curve(curve, n)
    dtn = build_dtn(base_sample)
    dmat = shape_derivative_matrix(dtn, a, side=side)
    n0 = _side_operator(dtn, side)
    one_sided = []
    central = []
    for h in h_list:
        plus = transplanted_dtn(curve, a, h, n, side=side)
        minus = transplanted_dtn(curve, a, -h, n, side=side)
        one_sided.append(banded_opnorm((plus - n0) / h - dmat,
                                       base_sample.weights,
                                       base_sample.t, band))
        central.append(banded_opnorm((plus - minus) / (2.0 * h) - dmat,
                                     base_sample.weights,
                                     base_sample.t, band))
    return {"curve": curve.to_config(), "a": a.to_config(),
            "n": n, "side": side, "band": band,
            "h_list": [float(h) for h in h_list],
            "one_sided_errors": [float(e) for e in one_sided],
            "central_errors": [float(e) for e in central],
            "max_errors": [float(max(o, c))
                           for o, c in zip(one_sided, central)],
            "slopes": {"one_sided": loglog_slope(h_list, one_sided),
                       "central": loglog_slope(h_list, central)}}

