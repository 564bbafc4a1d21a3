"""Eigenvalue perturbation under normal boundary shifts x + h a(x) n(x).

Sphere side: the degenerate eigenvalue (k+1)/k of the unit ball splits at
first order into the eigenvalues of the quadratic form

    q1(u, v) = (eps+1) [ -<grad u, a grad v> + eps <dn u, a dn v> ]

on the (2k+1)-dimensional eigenspace; the first derivative of the
eigenfunction solves an inhomogeneous transmission system whose modewise
solution feeds the second-derivative formula (six quadrature terms plus a
trailing factor 2). An independent evaluation of the second derivative
through the flux compatibility identity is provided for cross-checking.

Plane side: the same form with the arclength derivative as the surface
gradient, evaluated on the BEM eigenpairs of an eigenvalue's cluster; its
generalized eigenvalues are the branch derivatives, as on the sphere.

Both sides build q1 from one weighted Gram product, and the second-order
chain passes objects: q1_matrix(k, a) -> solve_udot(report, branch) ->
epsddot(udot) or epsddot_flux_route(udot). The solution carries the
P1 u = -div(a grad u), the projection of a dn u and the grid values of a
and dn u that its solve formed, so neither route forms them again.

Every sphere quadrature runs on sphere3d.exact_grid of its integrand's
degree, so the only error is roundoff. q1's tables of degree k on a grid
stay read-only in a cache of 8 (k, grid) entries, about 6 MB at k = 30 on
the band-45 grid and kilobytes at k <= 3. q1 calls LAPACK's syevr at
eigh's work sizes, and epsdot_2d's pencil sygvd, eigh's drivers; a nonzero
info raises NumericalError, for sygvd a singular Gram matrix.
"""

import functools
import math

import numpy as np

from .bem2d import _lapack, _syevr_work
from .curve2d import tangential_derivative
from .errors import (ConfigError, NumericalError, PerturbationError,
                     SplittingError)
from .sphere3d import (SHField, analyze, degree_harmonics, dtn_sphere_apply,
                       exact_grid, synthesize)

# Mean curvature of the unit sphere, outward normal: the Weingarten map is
# -I, so H = -1 and the trace-free part W0 = W - H I vanishes.
_H = -1.0
_EIG_TIE_RTOL = 1e-9
# resonant-degree flux compatibility residual accepted by solve_udot, in
# units of the compared coefficients' size (at least 1)
_COMPAT_TOL = 1e-8


def uniform_shape(value):
    """Constant shape function on the sphere as an SHField."""
    f = SHField(0)
    f.coeffs[0, 0] = value * math.sqrt(4.0 * math.pi)
    return f


def _ball_eps(k):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigError("perturb", "q1_matrix",
                          "degree k must be an integer >= 1", "k=%r" % (k,))
    return (k + 1.0) / k


def _check_finite(operation, what, *values):
    """Refuse a NaN or an infinity where a stage forms it: q1 is linear and
    the rest of the chain quadratic in the shape, so a huge shape makes
    them, and no later test could catch all of them (an infinite
    compatibility scale passes any residual)."""
    if not all(math.isfinite(x) if isinstance(x, float)
               else np.isfinite(x).all() for x in values):
        raise NumericalError("perturb", operation,
                             "%s must be finite; the shape must not be so "
                             "large that the chain overflows" % what)


def _first_order_form(eps, wa, grads, dns):
    """Matrix q1(u_i, u_j) over d stacked fields: grads is (d, ..., points)
    with the gradient components in the middle axes, dns is (d, points) and
    wa is the quadrature weights times a. A GEMM is not bitwise symmetric,
    so the result is symmetrized."""
    d = len(dns)
    gw = (grads * wa).reshape(d, -1)
    mat = (eps + 1.0) * (-gw @ grads.reshape(d, -1).T
                         + eps * ((dns * wa) @ dns.T))
    return 0.5 * (mat + mat.T)


def _canonical_eigenbasis(vals, vecs):
    """Deterministic eigenbasis: within each (near-)equal eigenvalue group,
    Gram-Schmidt on the spectral projector columns in index order, then one
    positive-leading-entry sign pass over all columns."""
    d = len(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    out = np.array(vecs, dtype=float)
    cuts = (np.flatnonzero(np.abs(np.diff(vals)) > _EIG_TIE_RTOL * scale)
            + 1).tolist()
    for start, stop in zip([0] + cuts, cuts + [d]):
        if stop - start > 1:
            group = slice(start, stop)
            proj = vecs[:, group] @ vecs[:, group].T
            chosen = []
            for col in range(d):
                w = proj[:, col].copy()
                for b in chosen:
                    w -= (b @ w) * b
                nrm = np.linalg.norm(w)
                if nrm > 1e-6:
                    chosen.append(w / nrm)
                if len(chosen) == stop - start:
                    break
            out[:, group] = np.array(chosen).T
    # a unit column has an entry above 1e-8, so argmax finds its lead
    out *= np.sign(out[np.argmax(np.abs(out) > 1e-8, axis=0), np.arange(d)])
    return out


class FirstOrderReport:
    """Splitting data of the eigenvalue (k+1)/k at first order.

    branches are the eigenvalues of the q1 matrix in ascending order; column
    b of basis holds the expansion of the b-th branch eigenfunction over the
    normalized spherical harmonics Y_{k,m} / sqrt(k), m = -k..k. The shape a
    is kept so that the second-order chain needs nothing else.
    """

    def __init__(self, k, epsilon, a, matrix, branches, basis,
                 basis_residual):
        self.k = k
        self.epsilon = epsilon
        self.a = a
        self.dimension = 2 * k + 1
        self.matrix = matrix
        self.branches = branches
        self.basis = basis
        self.basis_residual = basis_residual

    def branch_trace(self, index):
        """Boundary trace of branch eigenfunction as an SHField (band k)."""
        if not 0 <= index < self.dimension:
            raise ConfigError("perturb", "branch_trace",
                              "branch index must lie in [0, 2k]",
                              "index=%d, k=%d" % (index, self.k))
        k = self.k
        f = SHField(k)
        f.coeffs[k, :] = self.basis[:, index] / math.sqrt(k)
        return f

    def to_json_dict(self):
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "dimension": self.dimension,
            "branches": [float(b) for b in self.branches],
            "q1_matrix": [[float(x) for x in row] for row in self.matrix],
            "basis_residual": float(self.basis_residual),
        }


@functools.lru_cache(maxsize=8)
def _q1_tables(k, grid):
    """What q1_matrix needs of degree k on grid, read-only: the quadrature
    weights, the gradients of u_m = Y_{k,m} / sqrt(k), their normal
    derivatives sqrt(k) Y_{k,m}, and the Gram matrix <Y_i, Y_j> of the
    basis check."""
    w = grid.area_weights.ravel()
    vals, grads = degree_harmonics(k, grid)
    d = 2 * k + 1
    vals = vals.reshape(d, -1)
    gram = (vals * w) @ vals.T
    # scaled in place, so that the tables are the only copies
    grads = grads.reshape(d, 2, -1)
    grads /= math.sqrt(k)
    vals *= math.sqrt(k)
    tables = (w, grads, vals, gram)
    for t in tables:
        t.flags.writeable = False
    return tables


@np.errstate(all="ignore")  # an overflow or a NaN is refused below
def q1_matrix(k, a):
    """First-order splitting of the ball eigenvalue (k+1)/k for shape a.

    The eigenspace is stacked as the fields u_m = Y_{k,m} / sqrt(k), whose
    normal derivatives are sqrt(k) Y_{k,m}, read off the grid's tables.
    """
    eps = _ball_eps(k)
    grid = exact_grid(2 * k + a.L, max(k, a.L))
    w, grads, dns, gram = _q1_tables(k, grid)
    mat = _first_order_form(eps, w * synthesize(grid, [a])[0][0].ravel(),
                            grads, dns)
    _check_finite("q1_matrix", "the splitting matrix", mat)
    d = len(mat)
    lwork, liwork = _syevr_work(d)
    branches, vecs = _lapack("dsyevr", ("perturb", "q1_matrix",
                                        "splitting eigensolver must converge"),
                             mat, lower=1, lwork=lwork, liwork=liwork)[:2]
    basis = _canonical_eigenbasis(branches, vecs)
    # quadrature check of <u_i, dn u_j> = delta_ij for the branch basis
    bg = basis.T @ gram @ basis
    basis_residual = float(np.max(np.abs(bg - np.eye(d))))
    return FirstOrderReport(k, eps, a, mat, branches, basis, basis_residual)


class UdotSolution:
    """Interior boundary trace phi of the eigenfunction derivative, zero-E
    gauge.

    The degree-k component of phi is zero by the gauge choice, which fixes
    the non-uniqueness noted for the first-derivative system. The solution
    keeps the first-order report, the branch index and the branch trace u it
    was solved for; its epsdot is always report.branches[branch]. The
    second-order routes reuse p1u = -div(a grad u) and adnu, a dn u (band
    phi.L), and a_vals and dnu_vals, a and dn u on the solve's grid. The
    compatibility residual is the one solve_udot accepted: roundoff on
    coefficients of the shape's size.
    """

    def __init__(self, report, branch, trace, phi, p1u, adnu, a_vals,
                 dnu_vals, compatibility_residual):
        self.report = report
        self.branch = branch
        self.trace = trace
        self.phi = phi
        self.p1u = p1u
        self.adnu = adnu
        self.a_vals = a_vals
        self.dnu_vals = dnu_vals
        self.compatibility_residual = compatibility_residual
        self.epsilon = report.epsilon
        self.epsdot = float(report.branches[branch])


@np.errstate(all="ignore")  # an overflow or a NaN is refused below
def solve_udot(report, branch):
    """Solve the first-derivative transmission system for one branch of a
    FirstOrderReport.

    Right-hand sides are expanded in spherical harmonics; every degree
    l != k yields a regular 2x2 system for the trace coefficients, and the
    resonant degree k must satisfy the flux compatibility identity, which
    holds exactly when the branch diagonalizes q1.
    """
    ub = report.branch_trace(branch)
    k, a, eps = report.k, report.a, report.epsilon
    dnu = dtn_sphere_apply(ub)
    # a dn u and P1 u = -div(a grad u) have band L + k: degree 2(L + k)
    l_sys = a.L + k
    grid = exact_grid(2 * l_sys, l_sys)
    (a_vals, dnu_vals), (gu,) = synthesize(grid, [a, dnu], [ub])
    adnu, p1u = analyze(grid, l_sys, [a_vals * dnu_vals], [-a_vals * gu])
    f1 = adnu.scaled(-(eps + 1.0))
    gtil = p1u.scaled(-(eps + 1.0)).plus(dnu, -report.branches[branch])

    flux, source = gtil.coeffs[k], eps * k * f1.coeffs[k]
    compat = float(np.linalg.norm(flux - source))
    scale = max(1.0, float(np.linalg.norm(flux)),
                float(np.linalg.norm(source)))
    _check_finite("solve_udot", "the flux compatibility residual and its "
                  "scale", compat, scale)
    if compat > _COMPAT_TOL * scale:
        raise SplittingError(
            "perturb", "solve_udot",
            "resonant-degree flux compatibility requires a branch that "
            "diagonalizes q1", "residual %.3g of %.3g" % (compat, scale))
    lvec = np.arange(l_sys + 1, dtype=float)[:, None]
    denom = eps * lvec - (lvec + 1.0)
    # the resonant degree k is singular; the zero-E gauge sets phi_k = 0
    denom[k] = np.inf
    phi = SHField(l_sys, (gtil.coeffs - (lvec + 1.0) * f1.coeffs) / denom)
    _check_finite("solve_udot", "u-dot", phi.coeffs)
    return UdotSolution(report, branch, ub, phi, p1u, adnu, a_vals, dnu_vals,
                        compat)


class SecondOrderReport:
    """Second derivative of the eigenvalue along the branch of udot."""

    def __init__(self, udot, epsddot, lines, gauge_residual):
        self.udot = udot
        self.epsddot = epsddot
        self.lines = lines
        self.gauge_residual = gauge_residual
        self.compatibility_residual = udot.compatibility_residual

    def to_json_dict(self):
        return {
            "k": self.udot.report.k,
            "branch": self.udot.branch,
            "epsilon": self.udot.epsilon,
            "epsdot": self.udot.epsdot,
            "epsddot": self.epsddot,
            "lines": [float(x) for x in self.lines],
            "gauge_residual": float(self.gauge_residual),
            "compatibility_residual": float(self.compatibility_residual),
        }


def _epsddot_lines(grid, eps, epsdot, a_vals, u_vals, dnu_vals, gu, gw, gphi,
                   dnudot_vals):
    """The six quadrature terms for each interior trace phi of a stack, given
    its gradient gphi[j] and normal derivative dnudot_vals[j]; each list of
    six sums to half the second derivative. The first, second and fifth
    terms do not involve phi and are integrated once.

    The trace-free Weingarten term in the first line vanishes identically on
    the sphere (W0 = 0) and is omitted.
    """
    l1 = grid.integrate(-epsdot * a_vals * (gu[0] * gu[0] + gu[1] * gu[1]))
    l2 = (eps * eps - 1.0) * grid.integrate(
        a_vals * (gu[0] * gw[0] + gu[1] * gw[1]))
    l5 = eps * grid.integrate(
        a_vals * (epsdot + (eps + 1.0) * a_vals * _H) * dnu_vals * dnu_vals)
    w = grid.area_weights
    l3 = -(eps + 1.0) * np.sum(
        w * (a_vals * (gu[0] * gphi[:, 0] + gu[1] * gphi[:, 1])), axis=(1, 2))
    l4 = -epsdot * np.sum(w * (u_vals * dnudot_vals), axis=(1, 2))
    l6 = eps * (eps + 1.0) * np.sum(
        w * (a_vals * dnu_vals * dnudot_vals), axis=(1, 2))
    return [[l1, l2, float(x3), float(x4), l5, float(x6)]
            for x3, x4, x6 in zip(l3, l4, l6)]


@np.errstate(all="ignore")  # an overflow or a NaN is refused below
def epsddot(udot):
    """Second derivative of the eigenvalue along the branch of udot, the
    solve_udot solution (zero-E gauge).

    Returns a report carrying the six quadrature terms, the total
    (twice their sum), and a gauge-independence residual obtained by
    re-evaluating with the eigenfunction derivative shifted by an element
    of the eigenspace.
    """
    ub, phi, shifted = udot.trace, udot.phi, udot.phi.plus(udot.trace)
    # degree 2 phi.L: the solve's grid, where udot keeps a and dn u
    grid = exact_grid(2 * phi.L, phi.L)
    # the shifted trace gets transforms of its own, so that the gauge
    # residual compares two evaluations and not a sum with itself
    vals, grads = synthesize(grid, [ub, dtn_sphere_apply(phi),
                                    dtn_sphere_apply(shifted)],
                             [ub, udot.adnu, phi, shifted])
    lines, lines_shifted = _epsddot_lines(
        grid, udot.epsilon, udot.epsdot, udot.a_vals, vals[0], udot.dnu_vals,
        grads[0], grads[1], grads[2:], vals[1:])
    total = 2.0 * sum(lines)
    gauge_residual = abs(2.0 * sum(lines_shifted) - total)
    _check_finite("epsddot", "the second derivative and its gauge residual",
                  total, gauge_residual)
    return SecondOrderReport(udot, total, lines, gauge_residual)


@np.errstate(all="ignore")  # an overflow or a NaN is refused below
def epsddot_flux_route(udot):
    """Second derivative via the compatibility identity of the
    second-derivative transmission system: <G2, u> - eps <F2, dn u>.

    Shares u-dot with the quadrature formula but passes through entirely
    different intermediate expressions, so agreement is a strong
    cross-check. P1 u is the field udot.p1u that the solve formed.
    """
    a, ub, eps, epsdot = udot.report.a, udot.trace, udot.epsilon, udot.epsdot
    dnu, dnudot = dtn_sphere_apply(ub), dtn_sphere_apply(udot.phi)
    # B = -2 div(a^2 W0 grad u) + 2 P1(a dn u + u-dot), W0 = 0 on the sphere,
    # has band 2L + k: its projection onto that band has degree 2(2L + k)
    L_b = a.L + udot.phi.L
    grid = exact_grid(2 * L_b, L_b)
    (a_vals, u_vals, dnu_vals, p1u_vals, dnudot_vals), (ga, gdnu, gphi) = \
        synthesize(grid, [a, ub, dnu, udot.p1u, dnudot], [a, dnu, udot.phi])
    # grad(a dn u + u-dot), with grad(a dn u) = dn u grad a + a grad dn u
    ginner = dnu_vals * ga + a_vals * gdnu + gphi
    d_vals = a_vals * (2.0 * p1u_vals + 2.0 * _H * a_vals * dnu_vals
                       + 2.0 * dnudot_vals)
    f2_vals = -(eps + 1.0) * d_vals - 2.0 * epsdot * a_vals * dnu_vals
    b_field = analyze(grid, L_b, tangents=[-2.0 * a_vals * ginner])[0]
    g2 = udot.p1u.plus(dnudot).scaled(-2.0 * epsdot)
    g2_vals = synthesize(grid, [g2.plus(b_field, -(eps + 1.0))])[0][0]
    value = grid.integrate(g2_vals * u_vals) \
        - eps * grid.integrate(f2_vals * dnu_vals)
    _check_finite("epsddot_flux_route", "the second derivative", value)
    return value


def epsdot_2d(dtn, spectrum, index, a):
    """First derivative of the plane eigenvalue spectrum.eigenvalues[index]
    along the normal shift a.

    The eigenvalues within 1e-8 max(1, |eps|) of it form its cluster (a
    simple eigenvalue is a cluster of one). By the splitting theorem the
    cluster moves at first order along the eigenvalues of q1 on its
    eigenspace: (eps+1) * integral of a [ -ds g_i ds g_j + eps N- g_i N- g_j ]
    over the curve, solved against the interior-energy Gram matrix
    <g_i, N- g_j> because the eigensolver's basis of a cluster need not be
    energy-orthonormal. Returns the branch at index's position in the
    cluster, branches in ascending order, and its eigendensity: the
    cluster's densities combined by the form's eigenvector, the start of
    that branch (the finite differences follow it by overlap, see
    spectrum2d.follow_branch). The eigenfunctions are g = P S phi
    of the weighted-mean-zero eigendensities phi, with N- g = (K* - 1/2) phi:
    nothing is factored. Requires eps != 1 and unit interior energy.
    """
    sample = dtn.sample
    eps = float(spectrum.eigenvalues[index])
    if abs(eps - 1.0) < 1e-10:
        raise PerturbationError("perturb", "epsdot_2d",
                                "first-order formula requires eps != 1",
                                "eps=%.17g" % eps)
    close = np.nonzero(np.abs(spectrum.eigenvalues - eps)
                       <= 1e-8 * max(1.0, abs(eps)))[0]
    phi = spectrum.densities[:, close]
    w = sample.weights
    mean = w @ phi
    if np.any(np.abs(mean) > 1e-8 * np.sqrt((w @ (phi * phi)) * w.sum())):
        raise PerturbationError("perturb", "epsdot_2d",
                                "eigendensity must be weighted-mean-zero",
                                "<phi, 1> = %.3g" % np.max(np.abs(mean)))
    g, dng = dtn.interior_data(phi, dtn.product("np_adjoint", phi))
    gram = g.T @ (w[:, None] * dng)
    gap = float(np.max(np.abs(np.diag(gram) - 1.0)))
    if gap > 1e-6:
        raise PerturbationError("perturb", "epsdot_2d",
                                "eigenpair must satisfy <g, N- g> = 1",
                                "off by %.3g" % gap)
    qmat = _first_order_form(eps, w * a.value(sample.t),
                             tangential_derivative(sample, g).T, dng.T)
    _check_finite("epsdot_2d", "the first-order form", qmat)
    branches, vecs = _lapack("dsygvd", ("perturb", "epsdot_2d",
                                        "interior-energy Gram matrix must be "
                                        "positive definite"),
                             qmat, 0.5 * (gram + gram.T), uplo="L")
    pos = np.searchsorted(close, index)
    return float(branches[pos]), phi @ vecs[:, pos]
