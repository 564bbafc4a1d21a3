"""Layer-potential operators and Dirichlet-to-Neumann maps on a plane curve.

Nystrom discretization on the uniform parameter grid of a CurveSample. The
single-layer operator (S phi)(x) = (1/2pi) int log|x-y| phi(y) ds(y) is
assembled with the periodic log-singularity splitting quadrature (exact
Fourier weights for the log(2 sin) part, trapezoid for the smooth
remainder), which is spectrally accurate for smooth densities. The adjoint
double-layer kernel is smooth on smooth curves and keeps plain trapezoid
weights; its diagonal is the curvature limit.

Both Dirichlet-to-Neumann operators come from the bordered solve B: g -> phi
with S phi + c = g, <phi, 1>_w = 0. The function S phi + c is harmonic off
the curve with trace g and bounded at infinity, and c has no normal
derivative, so the jump relations give

    N- = (-1/2 I + K*) B,     N+ = (+1/2 I + K*) B.

Both operators annihilate constants. N- is positive semidefinite and N+
negative semidefinite on mean-zero data. The bordered system is invertible
whatever the logarithmic capacity, also at capacity 1, where S is singular.

Operators are plain (N, N) arrays acting on node values; the quadrature
weights of the discrete inner product <f, g> = sum f g w come only from the
sample.
"""

import math

import numpy as np
import scipy.linalg

from .errors import GeometryError, NumericalError

# Smallest accepted LAPACK reciprocal 1-norm condition estimate of a factored
# system. The bordered single-layer systems of resolved smooth curves read
# 1e-7 to 1e-3; a singular single layer (capacity 1) reads about 1e-16.
_RCOND_FLOOR = 1e-12


class DtNPair:
    """N-, N+, S and K* on one curve sample, as read-only (N, N) arrays."""

    def __init__(self, nminus, nplus, sample, single_layer, np_adjoint):
        self.nminus = nminus
        self.nplus = nplus
        self.sample = sample
        self.single_layer = single_layer
        self.np_adjoint = np_adjoint
        for arr in (nminus, nplus, single_layer, np_adjoint):
            arr.setflags(write=False)


def _log_quadrature_weights(n):
    """Weights w_d for int_0^{2pi} log(2 |sin((t - s)/2)|) f(s) ds.

    Exact for trigonometric polynomials of degree < n/2 on the uniform grid;
    the classical Kussmaul-Martensen construction.
    """
    d = np.arange(n)
    tau = 2.0 * math.pi * d / n
    m = np.arange(1, n // 2)
    w = -(2.0 * math.pi / n) * (
        np.cos(np.outer(tau, m)) @ (1.0 / m)
        + np.cos((n // 2) * tau) / n)
    return w


def assemble_single_layer(sample):
    """Single-layer operator with spectrally accurate log-split quadrature.

    On a circle of radius R constants map to R log R, so the operator is
    singular when the logarithmic capacity of the curve is 1.
    """
    n = sample.n
    x = sample.nodes
    t = sample.t
    diff = x[:, None, :] - x[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    halfsin = np.abs(np.sin(0.5 * (t[:, None] - t[None, :])))
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(halfsin, 0.5)
    smooth = dist / (2.0 * halfsin)
    np.fill_diagonal(smooth, sample.speed)

    w = _log_quadrature_weights(n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    logpart = w[idx]
    mat = (logpart + (2.0 * math.pi / n) * np.log(smooth)) / (2.0 * math.pi)
    return mat * sample.speed[None, :]


def assemble_np_adjoint(sample):
    """Adjoint double-layer (Neumann-Poincare) operator K*.

    Smooth kernel <x_i - x_j, n_i> / |x_i - x_j|^2 with the curvature
    diagonal; on the unit circle K* maps constants to 1/2 and kills
    mean-zero densities.
    """
    n = sample.n
    x = sample.nodes
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)
    num = np.einsum("ik,ijk->ij", sample.normals, diff)
    kern = num / r2
    # kernel diagonal: limit is half the standard (counterclockwise) curvature,
    # i.e. minus half the signed curvature in the outward-normal convention
    np.fill_diagonal(kern, -0.5 * sample.curvature)
    return kern * sample.speed[None, :] / n


def _checked_lu(mat, operation, contract):
    """LU factors of mat, refused when LAPACK's condition estimate is tiny.

    The reciprocal 1-norm condition number comes from gecon on the factors,
    O(N^2) on top of the O(N^3) factorization.
    """
    anorm = np.linalg.norm(mat, 1)
    lu, piv = scipy.linalg.lu_factor(mat)
    rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if not rcond >= _RCOND_FLOOR:
        raise NumericalError("bem2d", operation, contract,
                             "rcond=%.3g < %.0e" % (rcond, _RCOND_FLOOR))
    return lu, piv


def build_dtn(sample):
    """Assemble the interior/exterior DtN pair for a curve sample.

    One LU of the bordered single-layer system gives the density map B, and
    one product K* B gives both operators.
    """
    sop = assemble_single_layer(sample)
    kstar = assemble_np_adjoint(sample)
    n = sample.n
    big = np.block([[sop, np.ones((n, 1))],
                    [sample.weights[None, :], np.zeros((1, 1))]])
    lu = _checked_lu(big, "build_dtn",
                     "bordered single-layer system must be invertible")
    b = scipy.linalg.lu_solve(lu, np.eye(n + 1, n))[:n]
    kb = kstar @ b
    half_b = 0.5 * b
    return DtNPair(nminus=kb - half_b, nplus=kb + half_b, sample=sample,
                   single_layer=sop, np_adjoint=kstar)


def _point_in_polygon(point, nodes):
    """Crossing-parity test against the sampled polygon."""
    x, y = point
    px = nodes[:, 0]
    py = nodes[:, 1]
    qx = np.roll(px, -1)
    qy = np.roll(py, -1)
    crosses = ((py > y) != (qy > y)) & (
        x < px + (y - py) * (qx - px) / np.where(qy != py, qy - py, 1.0))
    return int(np.count_nonzero(crosses)) % 2 == 1


def compute_g0(dtn, y0=None):
    """Boundary function characterizing decaying exterior data.

    g0 is the normal derivative of the unique exterior harmonic function that
    vanishes on the boundary and grows like (1/2pi) log|x|; a mean-zero datum
    g extends to a decaying exterior harmonic exactly when <g, g0> = 0.
    Built from the Newton potential of an interior point (default: node
    centroid) minus its bounded exterior extension, then normalized so the
    boundary integral of g0 is one. The result does not depend on the chosen
    interior point.
    """
    sample = dtn.sample
    if y0 is None:
        total = sample.weights.sum()
        y0 = (sample.nodes * sample.weights[:, None]).sum(axis=0) / total
    y0 = np.asarray(y0, dtype=float)
    if not _point_in_polygon(y0, sample.nodes):
        raise GeometryError("bem2d", "compute_g0",
                            "base point must lie inside the curve",
                            "y0=%s" % y0.tolist())
    diff = sample.nodes - y0[None, :]
    r2 = np.einsum("ij,ij->i", diff, diff)
    boundary_vals = 0.25 * np.log(r2) / math.pi
    dn_newton = np.einsum("ij,ij->i", sample.normals, diff) / (2.0 * math.pi * r2)
    g0 = dn_newton - dtn.nplus @ boundary_vals
    flux = float(np.dot(g0, sample.weights))
    if abs(flux) < 1e-8:
        raise NumericalError("bem2d", "compute_g0",
                             "total flux of the log-growing solution must be 1",
                             "flux=%.3g" % flux)
    return g0 / flux


def farfield_log_coefficient(dtn, g):
    """Coefficient of log|x| in the plain single-layer exterior extension.

    Vanishes (to quadrature accuracy) exactly when <g, g0> = 0; mean-zero
    densities produce bounded extensions. It also vanishes exactly when the
    constant c of the bordered solve S phi + c = g behind build_dtn does,
    since then both solves give the same density. Needs the plain single
    layer to be invertible, so it raises NumericalError on curves of
    logarithmic capacity 1.
    """
    lu = _checked_lu(dtn.single_layer, "farfield_log_coefficient",
                     "plain single layer must be invertible; logarithmic "
                     "capacity is 1")
    phi = scipy.linalg.lu_solve(lu, np.asarray(g, dtype=float))
    return float(np.dot(phi, dtn.sample.weights)) / (2.0 * math.pi)
