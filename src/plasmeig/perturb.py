"""Eigenvalue perturbation under normal boundary shifts x + h a(x) n(x).

Sphere side: the degenerate eigenvalue (k+1)/k of the unit ball splits at
first order into the eigenvalues of the quadratic form

    q1(u, v) = (eps+1) [ -<grad u, a grad v> + eps <dn u, a dn v> ]

on the (2k+1)-dimensional eigenspace; the first derivative of the
eigenfunction solves an inhomogeneous transmission system whose modewise
solution feeds the second-derivative formula (six quadrature terms plus a
trailing factor 2). An independent evaluation of the second derivative
through the flux compatibility identity is provided for cross-checking.

Plane side: the same first-order formula with the arclength derivative as
the surface gradient, evaluated on BEM eigenpairs.

All sphere quadratures run on grids sized from the exact band arithmetic of
the integrands, so the only error is roundoff.
"""

import math

import numpy as np
import scipy.linalg

from .curve2d import tangential_derivative
from .errors import ConfigError, PerturbationError, SplittingError
from .sphere3d import (SHField, dtn_sphere_apply, sh_analysis, sh_multiply,
                       sh_synthesis, sphere_grid, surface_divergence,
                       surface_gradient)

# Mean curvature of the unit sphere, outward normal: the Weingarten map is
# -I, so H = -1 and the trace-free part W0 = W - H I vanishes.
_H = -1.0
_EIG_TIE_RTOL = 1e-9


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
    normalized spherical harmonics Y_{k,m} / sqrt(k), m = -k..k.
    """

    def __init__(self, k, epsilon, matrix, branches, basis, basis_residual):
        self.k = k
        self.epsilon = epsilon
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

    def symmetry_residual(self):
        return float(np.max(np.abs(self.matrix - self.matrix.T)))

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
    """First-order splitting of the ball eigenvalue (k+1)/k for shape a."""
    eps = _ball_eps(k)
    d = 2 * k + 1
    grid = sphere_grid(k + a.L + 2)
    a_vals = sh_synthesis(a, grid)
    fields = [SHField.basis(k, k, m) for m in range(-k, k + 1)]
    vals = [sh_synthesis(f, grid) for f in fields]
    grads = [surface_gradient(f, grid) for f in fields]
    mat = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            grad_term = grid.integrate(a_vals * grads[i].dot(grads[j])) / k
            val_term = grid.integrate(a_vals * vals[i] * vals[j]) * k
            mat[i, j] = mat[j, i] = (eps + 1.0) * (-grad_term + eps * val_term)
    branches, vecs = scipy.linalg.eigh(mat)
    basis = _canonical_eigenbasis(branches, vecs)
    # quadrature check of <u_i, dn u_j> = delta_ij for the branch basis
    gram = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            gram[i, j] = grid.integrate(vals[i] * vals[j])
    bg = basis.T @ gram @ basis
    basis_residual = float(np.max(np.abs(bg - np.eye(d))))
    return FirstOrderReport(k, eps, mat, branches, basis, basis_residual)


class UdotSolution:
    """Boundary traces of the eigenfunction derivative, zero-E gauge.

    phi and psi are the interior and exterior traces; the degree-k component
    of phi is zero by the gauge choice, which fixes the non-uniqueness noted
    for the first-derivative system.
    """

    def __init__(self, phi, psi, compatibility_residual, system_residual, k,
                 branch_index, epsilon, epsdot):
        self.phi = phi
        self.psi = psi
        self.compatibility_residual = compatibility_residual
        self.system_residual = system_residual
        self.k = k
        self.branch_index = branch_index
        self.epsilon = epsilon
        self.epsdot = epsdot


def solve_udot(k, branch_index, a, epsdot=None, report=None,
               compat_tol=1e-8):
    """Solve the first-derivative transmission system for one branch.

    Right-hand sides are expanded in spherical harmonics; every degree
    l != k yields a regular 2x2 system for the trace coefficients, and the
    resonant degree k must satisfy the flux compatibility identity, which
    holds exactly when the branch diagonalizes q1.
    """
    if report is None:
        report = q1_matrix(k, a)
    eps = report.epsilon
    if epsdot is None:
        epsdot = float(report.branches[branch_index])
    ub = report.branch_trace(branch_index)
    dnu = dtn_sphere_apply(ub, "interior")
    l_sys = a.L + k + 2
    grid = sphere_grid(l_sys)
    a_vals = sh_synthesis(a, grid)
    dnu_vals = sh_synthesis(dnu, grid)
    f1 = sh_analysis(-(eps + 1.0) * a_vals * dnu_vals, l_sys, grid)
    flow = surface_gradient(ub, grid).scaled_pointwise(a_vals)
    gtil = surface_divergence(flow, l_sys).scaled(eps + 1.0) \
        .plus(dnu.truncated(l_sys), -epsdot)

    phi = SHField(l_sys)
    psi = SHField(l_sys)
    compat = 0.0
    for l in range(l_sys + 1):
        frow = f1.coeffs[l]
        grow = gtil.coeffs[l]
        if l == k:
            compat = float(np.linalg.norm(grow - eps * k * frow))
            psi.coeffs[l] = -frow
        elif l == 0:
            psi.coeffs[l] = -grow
            phi.coeffs[l] = frow + psi.coeffs[l]
        else:
            denom = eps * l - (l + 1.0)
            phi.coeffs[l] = (grow - (l + 1.0) * frow) / denom
            psi.coeffs[l] = phi.coeffs[l] - frow
    if compat > compat_tol:
        raise SplittingError(
            "perturb", "solve_udot",
            "resonant-degree flux compatibility requires a branch that "
            "diagonalizes q1", "residual %.3g" % compat)

    lvec = np.arange(l_sys + 1, dtype=float)[:, None]
    r1 = phi.coeffs - psi.coeffs - f1.coeffs
    r2 = eps * lvec * phi.coeffs - (lvec + 1.0) * psi.coeffs - gtil.coeffs
    r1[k] = 0.0
    r2[k] = 0.0
    system_residual = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return UdotSolution(phi, psi, compat, system_residual, k, branch_index,
                        eps, epsdot)


class SecondOrderReport:
    """Second derivative of the eigenvalue along one branch."""

    def __init__(self, k, branch_index, epsilon, epsdot, epsddot, lines,
                 gauge_residual, compatibility_residual):
        self.k = k
        self.branch_index = branch_index
        self.epsilon = epsilon
        self.epsdot = epsdot
        self.epsddot = epsddot
        self.lines = lines
        self.gauge_residual = gauge_residual
        self.compatibility_residual = compatibility_residual

    def to_json_dict(self):
        return {
            "k": self.k,
            "branch": self.branch_index,
            "epsilon": self.epsilon,
            "epsdot": self.epsdot,
            "epsddot": self.epsddot,
            "lines": [float(x) for x in self.lines],
            "gauge_residual": float(self.gauge_residual),
            "compatibility_residual": float(self.compatibility_residual),
        }


def _epsddot_lines(grid, eps, epsdot, a_vals, u_vals, dnu_vals, gu, gw, phi):
    """The six quadrature terms; their sum is half the second derivative.

    The trace-free Weingarten term in the first line vanishes identically on
    the sphere (W0 = 0) and is omitted.
    """
    gphi = surface_gradient(phi, grid)
    dnudot_vals = sh_synthesis(dtn_sphere_apply(phi, "interior"), grid)
    l1 = grid.integrate(-epsdot * a_vals * gu.dot(gu))
    l2 = (eps * eps - 1.0) * grid.integrate(a_vals * gu.dot(gw))
    l3 = -(eps + 1.0) * grid.integrate(a_vals * gu.dot(gphi))
    l4 = -epsdot * grid.integrate(u_vals * dnudot_vals)
    l5 = eps * grid.integrate(
        a_vals * (epsdot + (eps + 1.0) * a_vals * _H) * dnu_vals * dnu_vals)
    l6 = eps * (eps + 1.0) * grid.integrate(a_vals * dnu_vals * dnudot_vals)
    return [l1, l2, l3, l4, l5, l6]


def epsddot(k, branch_index, a, epsdot=None, udot=None, report=None):
    """Second derivative of the eigenvalue along one branch (zero-E gauge).

    Returns a report carrying the six quadrature terms, the total
    (twice their sum), and a gauge-independence residual obtained by
    re-evaluating with the eigenfunction derivative shifted by an element
    of the eigenspace.
    """
    if report is None:
        report = q1_matrix(k, a)
    eps = report.epsilon
    if epsdot is None:
        epsdot = float(report.branches[branch_index])
    if udot is None:
        udot = solve_udot(k, branch_index, a, epsdot=epsdot, report=report)
    ub = report.branch_trace(branch_index)
    dnu = dtn_sphere_apply(ub, "interior")
    grid = sphere_grid(max(a.L + k + 2, udot.phi.L))
    a_vals = sh_synthesis(a, grid)
    u_vals = sh_synthesis(ub, grid)
    dnu_vals = sh_synthesis(dnu, grid)
    gu = surface_gradient(ub, grid)
    w_field = sh_analysis(a_vals * dnu_vals, a.L + k, grid)
    gw = surface_gradient(w_field, grid)
    lines = _epsddot_lines(grid, eps, epsdot, a_vals, u_vals, dnu_vals,
                           gu, gw, udot.phi)
    total = 2.0 * sum(lines)
    shifted = udot.phi.plus(ub)
    lines_shifted = _epsddot_lines(grid, eps, epsdot, a_vals, u_vals,
                                   dnu_vals, gu, gw, shifted)
    gauge_residual = abs(2.0 * sum(lines_shifted) - total)
    return SecondOrderReport(k, branch_index, eps, epsdot, total, lines,
                             gauge_residual, udot.compatibility_residual)


def p1_apply(a, v, L_out=None):
    """P1 v = -div(a grad v)."""
    if L_out is None:
        L_out = a.L + v.L + 2
    grid = sphere_grid((a.L + v.L + L_out + 2) // 2)
    a_vals = sh_synthesis(a, grid)
    flow = surface_gradient(v, grid).scaled_pointwise(a_vals)
    return surface_divergence(flow, L_out).scaled(-1.0)


def epsddot_flux_route(k, branch_index, a, epsdot=None, udot=None,
                       report=None):
    """Second derivative via the compatibility identity of the
    second-derivative transmission system: <G2, u> - eps <F2, dn u>.

    Shares u-dot with the quadrature formula but passes through entirely
    different intermediate expressions, so agreement is a strong
    cross-check.
    """
    if report is None:
        report = q1_matrix(k, a)
    eps = report.epsilon
    if epsdot is None:
        epsdot = float(report.branches[branch_index])
    if udot is None:
        udot = solve_udot(k, branch_index, a, epsdot=epsdot, report=report)
    ub = report.branch_trace(branch_index)
    dnu = dtn_sphere_apply(ub, "interior")
    dnudot = dtn_sphere_apply(udot.phi, "interior")
    p1u = p1_apply(a, ub)
    grid = sphere_grid(max(2 * a.L + k + 4, a.L + udot.phi.L + 2))
    a_vals = sh_synthesis(a, grid)
    u_vals = sh_synthesis(ub, grid)
    dnu_vals = sh_synthesis(dnu, grid)
    p1u_vals = sh_synthesis(p1u, grid)
    dnudot_vals = sh_synthesis(dnudot, grid)
    d_vals = a_vals * (2.0 * p1u_vals + 2.0 * _H * a_vals * dnu_vals
                       + 2.0 * dnudot_vals)
    f2_vals = -(eps + 1.0) * d_vals - 2.0 * epsdot * a_vals * dnu_vals
    # B = -2 div(a^2 W0 grad u) + 2 P1(a dn u + u-dot); W0 = 0 on the sphere
    inner = sh_multiply(a, dnu, L=a.L + k).plus(udot.phi)
    b_field = p1_apply(a, inner).scaled(2.0)
    a_term = p1u.plus(dnudot)
    g2 = a_term.scaled(-2.0 * epsdot).plus(b_field, -(eps + 1.0))
    g2_vals = sh_synthesis(g2, grid)
    return grid.integrate(g2_vals * u_vals) \
        - eps * grid.integrate(f2_vals * dnu_vals)


def epsdot_2d(dtn, eps, g, a, spectrum=None, split_tol=1e-6):
    """First derivative of a plane eigenvalue for normal shift a.

    Evaluates (eps+1) * integral of a [ -(ds g)^2 + eps (N- g)^2 ] over the
    curve. Requires eps != 1 and the eigenpair normalized to unit interior
    energy; for a degenerate eps the supplied g must diagonalize the
    first-order form on the eigenspace (pass the spectrum to have this
    verified).
    """
    sample = dtn.sample
    g = np.asarray(g, dtype=float)
    if abs(eps - 1.0) < 1e-10:
        raise PerturbationError("perturb", "epsdot_2d",
                                "first-order formula requires eps != 1",
                                "eps=%.17g" % eps)
    w = sample.weights
    dng = dtn.nminus.apply(g)
    energy = float(g @ (w * dng))
    if abs(energy - 1.0) > 1e-6:
        raise PerturbationError("perturb", "epsdot_2d",
                                "eigenpair must satisfy <g, N- g> = 1",
                                "got %.3g" % energy)
    a_vals = a.value(sample.t)
    dsg = tangential_derivative(sample, g)
    if spectrum is not None:
        _check_2d_splitting(dtn, eps, g, a_vals, spectrum, split_tol)
    form = (eps + 1.0) * float(
        np.dot(w * a_vals, -dsg * dsg + eps * dng * dng))
    return form


def _q1_form_2d(dtn, eps, a_vals, gi, gj):
    sample = dtn.sample
    w = sample.weights
    dsi = tangential_derivative(sample, gi)
    dsj = tangential_derivative(sample, gj)
    dni = dtn.nminus.apply(gi)
    dnj = dtn.nminus.apply(gj)
    return (eps + 1.0) * float(
        np.dot(w * a_vals, -dsi * dsj + eps * dni * dnj))


def _check_2d_splitting(dtn, eps, g, a_vals, spectrum, tol):
    """For a degenerate eps, verify that g diagonalizes the first-order
    form restricted to the eigenspace spanned by the nearby eigenpairs."""
    close = np.nonzero(np.abs(spectrum.eigenvalues - eps)
                       <= 1e-8 * max(1.0, abs(eps)))[0]
    if len(close) <= 1:
        return
    basis = spectrum.eigenfunctions[:, close]
    w = dtn.sample.weights
    coef = np.array([float(g @ (w * dtn.nminus.apply(basis[:, j])))
                     for j in range(basis.shape[1])])
    qmat = np.zeros((len(close), len(close)))
    for i in range(len(close)):
        for j in range(i, len(close)):
            qmat[i, j] = qmat[j, i] = _q1_form_2d(
                dtn, eps, a_vals, basis[:, i], basis[:, j])
    drift = qmat @ coef - (coef @ qmat @ coef) * coef
    scale = max(1.0, float(np.linalg.norm(qmat)))
    if np.linalg.norm(drift) > tol * scale:
        raise SplittingError(
            "perturb", "epsdot_2d",
            "degenerate eigenvalue requires a branch vector that "
            "diagonalizes the first-order form",
            "drift %.3g" % float(np.linalg.norm(drift)))
