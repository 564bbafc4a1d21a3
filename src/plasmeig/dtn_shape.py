"""Shape derivatives on plane curves and their finite-difference checks.

For a normal perturbation field a(t) the derivative of the interior
Dirichlet-to-Neumann operator acts on boundary data g as

    dN g = -d/ds (a dg/ds) + kappa a (N g) - N (a (N g)),

with kappa the signed curvature and d/ds the arclength derivative
(curve2d.tangential_derivative, by FFT); the exterior operator obeys the
same formula with its own N. fd_operator_check validates it against
transplanted operators on shifted curves by finite differences in the
weighted operator norm over a resolved frequency band, and
epsdot_fd_report checks perturb.epsdot_2d by central differences of the
eigenvalue on the same shifted curves (_central_samples); fd_flags is the
pass/fail rule of both series and check_steps the contract on their steps.
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

from .bem2d import _lapack, _syevr_work, build_dtn
from .curve2d import perturbed_sample, tangential_derivative
from .errors import ConfigError
from .perturb import epsdot_2d
from .spectrum2d import (check_num, follow_branch, select_far_from_one,
                         solve_plasmonic)

# FD roundoff floors factor u max(1, scale) / h (u the machine epsilon), with
# scale ||N||_band for the operators and |eps| for an eigenvalue
_OPERATOR_FD_FLOOR = 1e4
_EIGENVALUE_FD_FLOOR = 1e3
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
    n, l = len(t), np.arange(1, max_degree + 1)
    # cos(l t), sin(l t) for l = 1, 2, ...; no sine from the Nyquist on
    trig = np.stack([np.cos(l[:, None] * t), np.sin(l[:, None] * t)], axis=1)
    keep = np.stack([l > 0, l < n // 2], axis=1).reshape(-1)
    basis = np.vstack([np.full(n, 1.0 / math.sqrt(n)),
                       trig.reshape(-1, n)[keep] * math.sqrt(2.0 / n)]).T
    root = np.sqrt(np.asarray(weights, dtype=float))
    _, r = np.linalg.qr(root[:, None] * basis)
    return root, scipy.linalg.solve_triangular(r, basis.T, trans="T").T


def banded_opnorm(applied, root):
    """Weighted operator norm of a map restricted to the inputs spanned by
    the domain of band_domain(weights, t, max_degree) = (root, domain),
    from the block applied = map @ domain: the largest singular value of
    Y = root * applied, as the square root of the top eigenvalue of the
    k x k Gram matrix Y^T Y (on an (N, k) block half the time of the SVD of
    Y, and the same to a few units of roundoff), from syevr."""
    y = root[:, None] * applied
    k = y.shape[1]
    lwork, liwork = _syevr_work(k)
    top = _lapack("dsyevr", ("dtn_shape", "banded_opnorm",
                             "Gram eigenvalue solver must converge"),
                  y.T @ y, compute_v=0, range="I", il=k, iu=k, lower=1,
                  lwork=lwork, liwork=liwork)[0]
    return math.sqrt(top[0])


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


def fd_flags(series, floors):
    """Verdict flags on finite-difference error series {name: (slope,
    errors, order)}, errors expected O(h^order) above the per-step floors.

    A series passes (name_slope_ok) when its slope is at least order - 0.2,
    so errors falling faster than expected pass, or when it has no slope and
    every error is at most its floor. When no series has a slope, the job
    gets the single flag zero_deformation_ok: every error at most its floor.
    """
    below = {name: all(e <= f for e, f in zip(errors, floors))
             for name, (_, errors, _) in series.items()}
    if all(slope is None for slope, _, _ in series.values()):
        return {"zero_deformation_ok": all(below.values())}
    return {name + "_slope_ok": below[name] if slope is None
            else slope >= order - 0.2
            for name, (slope, _, order) in series.items()}


def check_steps(h_list, operation):
    """Refuse a step list without two distinct positive steps: a log-log
    slope needs two abscissae."""
    if len(set(h_list)) < 2 or min(h_list) <= 0:
        raise ConfigError("dtn_shape", operation,
                          "h_list must hold at least two distinct positive "
                          "steps", "h_list=%r" % (h_list,))


def _central_samples(curve, a, h_list, n, operation):
    """The base sample of curve and (h, sample at +h, sample at -h) for each
    step h of h_list in turn, from one perturbed_sample call, so the
    star-shape checks of all steps run before any solve."""
    check_steps(h_list, operation)
    base, *shifted = perturbed_sample(
        curve, a, [0.0] + [s * h for h in h_list for s in (1.0, -1.0)], n)
    return base, list(zip(h_list, shifted[::2], shifted[1::2]))


def fd_operator_check(curve, a, n, h_list, sides=SIDES):
    """Finite-difference consistency of the shape derivative in operator
    norm over trigonometric inputs of degree at most n // 4, for the
    interior and the exterior operator, or only the sides named.

    The base sample and the shifted ones at +-h are each assembled and
    applied to the band basis once for both sides, one step at a time.
    Returns {side: report}, each with one-sided and central errors and the
    roundoff floor _OPERATOR_FD_FLOOR u max(1, ||N||_band) / h per step, and
    the log-log slopes (expected near 1 and 2) of the errors above their
    floors.
    """
    sample, steps = _central_samples(curve, a, h_list, n, "fd_operator_check")
    index = [SIDES.index(side) for side in sides]
    max_degree = n // 4
    dtn = build_dtn(sample)
    root, domain = band_domain(dtn.sample.weights, dtn.sample.t, max_degree)
    # both sides come from one stacked solve, whose bits depend on the block
    # layout, so a one-side job forms both and keeps its own
    derivs, applied = shape_derivative(dtn, a, domain)
    base, derivs = [applied[i] for i in index], [derivs[i] for i in index]
    errors = []
    for h, up, down in steps:
        up = build_dtn(up).apply(domain)
        down = build_dtn(down).apply(domain)
        errors.append([
            (banded_opnorm((up[i] - n0) / h - d, root),
             banded_opnorm((up[i] - down[i]) / (2.0 * h) - d, root))
            for i, n0, d in zip(index, base, derivs)])
    reports = {}
    for j, side in enumerate(sides):
        one_sided, central = np.array(errors)[:, j].T
        unit = np.finfo(float).eps * max(1.0, banded_opnorm(base[j], root))
        floors = [_OPERATOR_FD_FLOOR * unit / h for h in h_list]
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


def epsdot_fd_report(curve, a, h_list, n=128, num=10, index=0):
    """epsdot_2d of the eigenvalue at index of the num selected ones,
    ascending (its branch when the eigenvalue is clustered), against its
    central differences: the outputs of a 2D perturb job. The base spectrum
    keeps min(num + 2, n - 1) eigenvalues, so a plane cluster (at most
    2-fold on dihedral curves) cut by the selection of num stays whole.
    Each shifted eigenvalue is followed by follow_branch from the prediction
    eps +- h epsdot and the base densities within two places of index, and
    is the one whose eigendensity overlaps most with the base density of
    the branch; near a crossing the overlap decides, not the prediction.
    The eigenvalues belong to the shifted domain, not to its
    parametrization, so the exact node images need no re-parametrization.
    The slope is fitted to the errors above their roundoff floors."""
    check_num(num, n, "epsdot_fd_report")
    if not 0 <= index < num:
        raise ConfigError("dtn_shape", "epsdot_fd_report",
                          "index must lie in 0..num-1",
                          "index=%r, num=%r" % (index, num))
    sample, steps = _central_samples(curve, a, h_list, n, "epsdot_fd_report")
    wide = min(num + 2, n - 1)
    dtn = build_dtn(sample)
    spec = solve_plasmonic(dtn, num=wide)
    index = int(select_far_from_one(spec.eigenvalues, num)[index])
    eps = float(spec.eigenvalues[index])
    value, branch = epsdot_2d(dtn, spec, index, a)
    start = spec.densities[:, max(0, index - 2):index + 3]
    diffs = [(follow_branch(build_dtn(up), eps + h * value, start, branch,
                            wide)
              - follow_branch(build_dtn(down), eps - h * value, start,
                              branch, wide)) / (2.0 * h)
             for h, up, down in steps]
    errors = [abs(d - value) for d in diffs]
    floors = [_EIGENVALUE_FD_FLOOR * np.finfo(float).eps * max(1.0, abs(eps))
              / h for h in h_list]
    return {"epsilon": eps, "epsdot": value,
            "fd_values": [float(d) for d in diffs],
            "fd_errors": [float(e) for e in errors],
            "fd_floors": floors, "h_list": [float(h) for h in h_list],
            "slope": loglog_slope(h_list, errors, floors)}
