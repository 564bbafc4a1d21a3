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
P1 u = -div(a grad u) and the grid values of a and dn u that its solve
formed, so neither route forms them again.

All sphere quadratures run on grids sized from the exact band arithmetic of
the integrands, so the only error is roundoff.
"""

import math

import numpy as np
import scipy.linalg

from .curve2d import tangential_derivative
from .errors import ConfigError, PerturbationError, SplittingError
from .sphere3d import (SHField, analyze, degree_harmonics, dtn_sphere_apply,
                       sphere_grid, synthesize)

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
    Gram-Schmidt on the spectral projector columns in index order, then a
    positive-leading-entry sign convention."""
    d = len(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    out = np.array(vecs, dtype=float)
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and abs(vals[stop] - vals[stop - 1]) <= _EIG_TIE_RTOL * scale:
            stop += 1
        group = slice(start, stop)
        if stop - start > 1:
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
        for j in range(start, stop):
            lead = np.nonzero(np.abs(out[:, j]) > 1e-8)[0]
            if len(lead) and out[lead[0], j] < 0:
                out[:, j] = -out[:, j]
        start = stop
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


def q1_matrix(k, a):
    """First-order splitting of the ball eigenvalue (k+1)/k for shape a.

    The eigenspace is stacked as the fields u_m = Y_{k,m} / sqrt(k), whose
    normal derivatives are sqrt(k) Y_{k,m}, read off the grid's tables.
    """
    eps = _ball_eps(k)
    grid = sphere_grid(k + a.L + 2)
    w = grid.area_weights.ravel()
    vals, grads = degree_harmonics(k, grid)
    d = 2 * k + 1
    vals = vals.reshape(d, -1)
    mat = _first_order_form(eps, w * synthesize(grid, [a])[0][0].ravel(),
                            grads.reshape(d, 2, -1) / math.sqrt(k),
                            math.sqrt(k) * vals)
    branches, vecs = scipy.linalg.eigh(mat)
    basis = _canonical_eigenbasis(branches, vecs)
    # quadrature check of <u_i, dn u_j> = delta_ij for the branch basis
    bg = basis.T @ ((vals * w) @ vals.T) @ basis
    basis_residual = float(np.max(np.abs(bg - np.eye(len(vals)))))
    return FirstOrderReport(k, eps, a, mat, branches, basis, basis_residual)


class UdotSolution:
    """Interior boundary trace phi of the eigenfunction derivative, zero-E
    gauge.

    The degree-k component of phi is zero by the gauge choice, which fixes
    the non-uniqueness noted for the first-derivative system. The solution
    keeps the first-order report, the branch index and the branch trace u it
    was solved for; its epsdot is always report.branches[branch]. The
    second-order routes reuse p1u = -div(a grad u) (band phi.L) and a_vals
    and dnu_vals, a and dn u on sphere_grid(phi.L), from the solve. The
    compatibility residual is the one solve_udot accepted: roundoff on
    coefficients of the shape's size.
    """

    def __init__(self, report, branch, trace, phi, p1u, a_vals, dnu_vals,
                 compatibility_residual):
        self.report = report
        self.branch = branch
        self.trace = trace
        self.phi = phi
        self.p1u = p1u
        self.a_vals = a_vals
        self.dnu_vals = dnu_vals
        self.compatibility_residual = compatibility_residual
        self.epsilon = report.epsilon
        self.epsdot = float(report.branches[branch])


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
    epsdot = float(report.branches[branch])
    dnu = dtn_sphere_apply(ub)
    l_sys = a.L + k + 2
    grid = sphere_grid(l_sys)
    (a_vals, dnu_vals), (gu,) = synthesize(grid, [a, dnu], [ub])
    # P1 u = -div(a grad u), on the solve's grid and band
    f1, p1u = analyze(grid, l_sys, [-(eps + 1.0) * a_vals * dnu_vals],
                      [-a_vals * gu])
    gtil = p1u.scaled(-(eps + 1.0)).plus(dnu, -epsdot)

    flux, source = gtil.coeffs[k], eps * k * f1.coeffs[k]
    compat = float(np.linalg.norm(flux - source))
    scale = max(1.0, float(np.linalg.norm(flux)),
                float(np.linalg.norm(source)))
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
    return UdotSolution(report, branch, ub, phi, p1u, a_vals, dnu_vals,
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


def epsddot(udot):
    """Second derivative of the eigenvalue along the branch of udot, the
    solve_udot solution (zero-E gauge).

    Returns a report carrying the six quadrature terms, the total
    (twice their sum), and a gauge-independence residual obtained by
    re-evaluating with the eigenfunction derivative shifted by an element
    of the eigenspace.
    """
    report, ub = udot.report, udot.trace
    k, a, eps, epsdot = report.k, report.a, udot.epsilon, udot.epsdot
    phi, shifted = udot.phi, udot.phi.plus(ub)
    # the solve's grid, where udot keeps the values of a and dn u
    grid = sphere_grid(phi.L)
    a_vals, dnu_vals = udot.a_vals, udot.dnu_vals
    (w_field,) = analyze(grid, a.L + k, [a_vals * dnu_vals])
    # the shifted trace gets transforms of its own, so that the gauge
    # residual compares two evaluations and not a sum with itself
    vals, grads = synthesize(grid, [ub, dtn_sphere_apply(phi),
                                    dtn_sphere_apply(shifted)],
                             [ub, w_field, phi, shifted])
    lines, lines_shifted = _epsddot_lines(grid, eps, epsdot, a_vals, vals[0],
                                          dnu_vals, grads[0], grads[1],
                                          grads[2:], vals[1:])
    total = 2.0 * sum(lines)
    gauge_residual = abs(2.0 * sum(lines_shifted) - total)
    return SecondOrderReport(udot, total, lines, gauge_residual)


def epsddot_flux_route(udot):
    """Second derivative via the compatibility identity of the
    second-derivative transmission system: <G2, u> - eps <F2, dn u>.

    Shares u-dot with the quadrature formula but passes through entirely
    different intermediate expressions, so agreement is a strong
    cross-check. P1 u is the field udot.p1u that the solve formed.
    """
    report, ub = udot.report, udot.trace
    k, a, eps, epsdot = report.k, report.a, udot.epsilon, udot.epsdot
    dnu, dnudot = dtn_sphere_apply(ub), dtn_sphere_apply(udot.phi)
    # B = -2 div(a^2 W0 grad u) + 2 P1(a dn u + u-dot), W0 = 0 on the sphere,
    # on the grid and band of P1 of the band-(a.L + k + 2) inner field
    L_b = 2 * a.L + k + 4
    grid = sphere_grid(L_b)
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
    return grid.integrate(g2_vals * u_vals) \
        - eps * grid.integrate(f2_vals * dnu_vals)


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
    cluster, branches in ascending order. The eigenfunctions are g = P S phi
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
    g, dng = dtn.interior_data(phi, dtn.np_adjoint @ phi)
    gram = g.T @ (w[:, None] * dng)
    gap = float(np.max(np.abs(np.diag(gram) - 1.0)))
    if gap > 1e-6:
        raise PerturbationError("perturb", "epsdot_2d",
                                "eigenpair must satisfy <g, N- g> = 1",
                                "off by %.3g" % gap)
    qmat = _first_order_form(eps, w * a.value(sample.t),
                             tangential_derivative(sample, g).T, dng.T)
    branches = scipy.linalg.eigh(qmat, 0.5 * (gram + gram.T),
                                 eigvals_only=True)
    return float(branches[np.searchsorted(close, index)])
