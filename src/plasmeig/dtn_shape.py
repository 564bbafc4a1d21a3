"""Shape derivative of the Dirichlet-to-Neumann operators on plane curves.

For a normal perturbation field a(t) the derivative of the interior
operator acts on boundary data g as

    dN g = -d/ds (a dg/ds) + kappa a (N g) - N (a (N g)),

with kappa the signed curvature and d/ds the arclength derivative
(curve2d.tangential_derivative, by FFT); the exterior operator obeys the
same formula with its own N. The derivative is validated against
transplanted operators on perturbed curves by finite differences in the
weighted operator norm over a resolved frequency band.
Its expected first-order (not second-order) growth in frequency, which
distinguishes it from a generic second-order operator, is checked in the
test suite.

Transplantation uses exact image nodes: the perturbed curve is sampled at
the images x(t) + h a(t) n(t) of the base nodes, so its DtN maps act
directly on base node values and operator differences make sense
entrywise. Every operator is applied to the band basis only, never formed
as an (N, N) matrix.
"""

import math

import numpy as np
import scipy.linalg

from .bem2d import build_dtn
from .curve2d import perturbed_sample, sample_curve, tangential_derivative
from .errors import ConfigError

# FD roundoff floor in units of u max(1, ||N||_band) / h (u machine epsilon)
_FD_FLOOR = 1e4
# The DtN maps in the order DtNPair.apply returns them
SIDES = ("interior", "exterior")


def band_domain(weights, t, max_degree):
    """sqrt(weights) and a basis, orthonormal in <f, g> = sum f g weights,
    of the trigonometric polynomials of degree at most max_degree on the
    nodes t: banded_opnorm takes root and a map applied to domain.

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


def banded_opnorm(applied, root):
    """Weighted operator norm of a map restricted to the inputs spanned by
    the domain of band_domain(weights, t, max_degree) = (root, domain),
    from the block applied = map @ domain."""
    return float(scipy.linalg.svdvals(root[:, None] * applied)[0])


def shape_derivative(dtn, a, x):
    """(dN- x, dN+ x), (N- x, N+ x): the shape derivative of each DtN map
    applied to the columns of the (N, k) block x, and the maps themselves
    applied to it, with one apply for N x and one for N (a N x) on both
    sides."""
    sample = dtn.sample
    a_vals = a.value(sample.t)[:, None]
    local = -tangential_derivative(
        sample, a_vals * tangential_derivative(sample, x))
    applied = dtn.apply(x)
    an = [a_vals * side for side in applied]
    minus, plus = dtn.apply(np.hstack(an))
    k = an[0].shape[1]
    kappa = sample.curvature[:, None]
    return (local + kappa * an[0] - minus[:, :k],
            local + kappa * an[1] - plus[:, k:]), applied


def loglog_slope(h_list, errors, floors):
    """Least-squares slope of log(errors) against log(h_list) over the steps
    whose error exceeds its floor (one per step, or one for all), or None
    when fewer than two distinct steps do: errors at the roundoff floor of
    an identically zero deformation leave no slope to fit."""
    keep = np.asarray(errors) > floors
    if len(set(np.asarray(h_list, dtype=float)[keep])) < 2:
        return None
    return float(np.polyfit(np.log(h_list)[keep], np.log(errors)[keep], 1)[0])


def fd_operator_check(curve, a, n, h_list, sides=SIDES):
    """Finite-difference consistency of the shape derivative in operator
    norm over trigonometric inputs of degree at most n // 4, for the
    interior and the exterior operator, or only the sides named.

    Each shifted curve perturbed_sample(curve, a, +-h, n) is assembled and
    applied to the band basis once for both sides, one step at a time.
    Returns {side: report}, each with one-sided and central errors and the
    roundoff floor _FD_FLOOR u max(1, ||N||_band) / h per step, and the
    log-log slopes (expected near 1 and 2) of the errors above their floors.
    """
    if len(set(h_list)) < 2:
        raise ConfigError("dtn_shape", "fd_operator_check",
                          "at least two distinct step sizes are required",
                          "h_list=%r" % (h_list,))
    index = [SIDES.index(side) for side in sides]
    max_degree = n // 4
    dtn = build_dtn(sample_curve(curve, n))
    root, domain = band_domain(dtn.sample.weights, dtn.sample.t, max_degree)
    # both sides come from one stacked solve, whose bits depend on the block
    # layout, so a one-side job forms both and keeps its own
    derivs, applied = shape_derivative(dtn, a, domain)
    base, derivs = [applied[i] for i in index], [derivs[i] for i in index]
    errors = []
    for h in h_list:
        up = build_dtn(perturbed_sample(curve, a, h, n)).apply(domain)
        down = build_dtn(perturbed_sample(curve, a, -h, n)).apply(domain)
        errors.append([
            (banded_opnorm((up[i] - n0) / h - d, root),
             banded_opnorm((up[i] - down[i]) / (2.0 * h) - d, root))
            for i, n0, d in zip(index, base, derivs)])
    reports = {}
    for j, side in enumerate(sides):
        one_sided, central = np.array(errors)[:, j].T
        unit = np.finfo(float).eps * max(1.0, banded_opnorm(base[j], root))
        floors = [_FD_FLOOR * unit / h for h in h_list]
        reports[side] = {
            "curve": curve.to_config(), "a": a.to_config(),
            "n": n, "side": side, "band": max_degree,
            "h_list": [float(h) for h in h_list],
            "one_sided_errors": one_sided.tolist(),
            "central_errors": central.tolist(),
            "max_errors": np.maximum(one_sided, central).tolist(),
            "fd_floors": floors,
            "slopes": {"one_sided": loglog_slope(h_list, one_sided, floors),
                       "central": loglog_slope(h_list, central, floors)}}
    return reports
