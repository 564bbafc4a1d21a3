"""Plasmonic eigenvalues of a plane curve.

Computes permittivities eps for which the transmission problem

    Laplace u = 0 off the curve,   u continuous,
    eps dn(u-) + dn(u+) = 0,       u bounded at infinity

has a nontrivial solution, i.e. (eps N- + N+) g = 0 on mean-zero boundary
data. Two independent routes are provided: a generalized symmetric
eigensolve of the DtN pencil on a mean-zero basis, and the classical
Neumann-Poincare route through the eigenvalues of K*. Eigenvalues
accumulate at 1 from both sides; the selected ones are the num farthest
from 1, reported in ascending order.
"""

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegeneracyError, EInfinitySignal, NumericalError

_DENOM_TOL = 1e-12


class PlasmonicSpectrum:
    """Selected plasmonic eigenvalues with eigenfunctions and diagnostics.

    eigenvalues are ascending; eigenfunctions has one column per eigenvalue,
    normalized so <g, N- g> = 1. residuals are the weighted norms
    ||(eps N- + N+) g||.
    """

    def __init__(self, eigenvalues, eigenfunctions, residuals, route,
                 curve_config, n):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenfunctions = np.asarray(eigenfunctions, dtype=float)
        self.residuals = np.asarray(residuals, dtype=float)
        self.route = route
        self.curve_config = curve_config
        self.n = n

    def clustering_stats(self, tail_after=20):
        """Tail statistics of |eps - 1| in decreasing order.

        The distances to 1 beyond index tail_after quantify how fast the
        computed spectrum accumulates at the limit point.
        """
        d = np.sort(np.abs(self.eigenvalues - 1.0))[::-1]
        tail = d[tail_after:]
        if len(tail) == 0:
            return {"tail_mean": 0.0, "tail_max": 0.0}
        return {"tail_mean": float(tail.mean()), "tail_max": float(tail.max())}

    def to_json_dict(self):
        return {
            "curve": self.curve_config,
            "N": self.n,
            "route": self.route,
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "clustering": self.clustering_stats(),
        }

    def csv_text(self):
        lines = ["k,epsilon,residual"]
        for k, (e, r) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append("%d,%s,%s" % (k, repr(float(e)), repr(float(r))))
        return "\n".join(lines) + "\n"


def _mean_zero_reflector(weights):
    """sqrt(w) and the vector v of the reflector H taking sqrt(w) onto the e1 axis.

    With D = diag(sqrt(w)), the columns of Q = D^{-1} H[:, 1:] are an
    M-orthonormal basis of the weighted-mean-zero subspace, and Q^T M A Q is
    the trailing block of H (D A D^{-1}) H.
    """
    root = np.sqrt(weights)
    v = root / np.linalg.norm(root)
    v[0] += 1.0   # weights are positive, so this adds without cancellation
    return root, v


def _reflect(v, a):
    """H a for H = I - 2 v v^T / (v^T v): one rank-1 update."""
    return a - np.outer(v, (2.0 / (v @ v)) * (v @ a))


def _project(mat, root, v):
    """Q^T M mat Q on the mean-zero basis, symmetrized; O(N^2)."""
    c = _reflect(v, _reflect(v, root[:, None] * mat / root[None, :]).T).T
    c = c[1:, 1:]
    return 0.5 * (c + c.T)


def _select_far_from_one(eps, num):
    order = np.argsort(-np.abs(eps - 1.0), kind="stable")
    keep = order[:num]
    return keep[np.argsort(eps[keep], kind="stable")]


def solve_plasmonic(dtn, num=20, curve_config=None):
    """DtN-pencil route: symmetric generalized eigensolve on mean-zero data.

    eps are reciprocals of the eigenvalues of -N+^{-1} N-, computed as
    eigenvalues of the pencil (A-, A+) with A- = Q^T M N- Q and
    A+ = -Q^T M N+ Q on an M-orthonormal mean-zero basis Q; A+ is positive
    definite there, so scipy's symmetric solver applies. Q is a weighted
    Householder reflector (_mean_zero_reflector): projecting onto it and
    back costs O(N^2).
    """
    sample = dtn.sample
    if num < 1:
        raise ConfigError("spectrum2d", "solve_plasmonic",
                          "num must be a positive integer", "num=%d" % num)
    if num > sample.n - 1:
        raise ConfigError("spectrum2d", "solve_plasmonic",
                          "num must not exceed the mean-zero subspace dimension",
                          "num=%d, N=%d" % (num, sample.n))
    root, v = _mean_zero_reflector(sample.weights)
    aminus = _project(dtn.nminus.matrix, root, v)
    aplus = -_project(dtn.nplus.matrix, root, v)
    try:
        mu, y = scipy.linalg.eigh(aminus, aplus)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("spectrum2d", "solve_plasmonic",
                             "exterior energy form must be positive definite "
                             "on mean-zero data", str(exc))
    if np.any(mu <= 0.0):
        bad = int(np.count_nonzero(mu <= 0.0))
        raise NumericalError("spectrum2d", "solve_plasmonic",
                             "pencil eigenvalues must be positive "
                             "(eps = 1/mu > 0)", "%d nonpositive" % bad)
    eps = 1.0 / mu
    keep = _select_far_from_one(eps, num)
    eps_sel = eps[keep]
    # columns of y are A+-orthonormal: y^T A+ y = I, so g = Q y sqrt(eps)
    # gives <g, N- g> = eps * y^T A- y / eps ... = mu * eps = 1
    z = np.vstack([np.zeros(len(keep)), y[:, keep] * np.sqrt(eps_sel)])
    g = _reflect(v, z) / root[:, None]
    res = residual_norm(dtn, eps_sel, g)
    return PlasmonicSpectrum(eps_sel, g, res, "dtn",
                             curve_config or {}, sample.n)


def np_route(dtn, num=20, curve_config=None):
    """Neumann-Poincare route: eps from the eigenvalues of K*.

    The transmission pencil factors through K*: an eigenvalue lam of K* on
    mean-zero densities gives eps = (1 + 2 lam) / (1 - 2 lam). The plane
    spectrum of K* is symmetric about 0, so the resulting eps multiset
    matches the pencil route. Eigenfunctions are recovered as boundary data
    g = S phi of the K* eigendensities, renormalized like the pencil route.
    """
    sample = dtn.sample
    kmat = dtn.np_adjoint.matrix
    lam, phi = scipy.linalg.eig(kmat)
    if np.max(np.abs(lam.imag)) > 1e-8:
        raise NumericalError("spectrum2d", "np_route",
                             "K* spectrum must be real on smooth curves",
                             "max imag %.3g" % float(np.max(np.abs(lam.imag))))
    lam = lam.real
    phi = phi.real
    # discard the constant-density eigenvalue 1/2 (maps to eps infinite)
    flux = np.abs(sample.weights @ phi) / np.linalg.norm(phi, axis=0)
    keep_mask = ~((np.abs(lam - 0.5) < 1e-6) & (flux > 1e-6))
    drop = np.count_nonzero(~keep_mask)
    if drop != 1:
        raise NumericalError("spectrum2d", "np_route",
                             "K* must have exactly one flux-carrying "
                             "eigenvalue 1/2", "found %d" % drop)
    lam = lam[keep_mask]
    phi = phi[:, keep_mask]
    if np.any(np.abs(1.0 - 2.0 * lam) < _DENOM_TOL):
        raise DegeneracyError("spectrum2d", "np_route",
                              "K* eigenvalue 1/2 of multiplicity > 1 maps to "
                              "no finite eps", "")
    eps = (1.0 + 2.0 * lam) / (1.0 - 2.0 * lam)
    if num > len(eps):
        raise ConfigError("spectrum2d", "np_route",
                          "num must not exceed the mean-zero subspace dimension",
                          "num=%d, N=%d" % (num, sample.n))
    keep = _select_far_from_one(eps, num)
    eps_sel = eps[keep]
    g = dtn.single_layer.matrix @ phi[:, keep]
    g = g - (sample.weights @ g)[None, :] / sample.weights.sum()
    quad = sample.weights @ (g * dtn.nminus.apply(g))
    if np.any(quad <= 0.0):
        raise NumericalError("spectrum2d", "np_route",
                             "interior energy of an eigenfunction must "
                             "be positive", "got %.3g" % quad.min())
    g /= np.sqrt(quad)
    res = residual_norm(dtn, eps_sel, g)
    return PlasmonicSpectrum(eps_sel, g, res, "np",
                             curve_config or {}, sample.n)


def residual_norm(dtn, eps, g):
    """Weighted norms of (eps N- + N+) g for normalized candidate pairs.

    Takes one pair (scalar eps, vector g) and returns a float, or a vector
    of eps with one column of g each and returns their norms as an array.
    """
    g = np.asarray(g, dtype=float)
    r = dtn.nminus.apply(g) * eps + dtn.nplus.apply(g)
    norms = np.sqrt(dtn.sample.weights @ (r * r))
    return float(norms) if g.ndim == 1 else norms


def rayleigh(dtn, g):
    """Rayleigh quotient -<g, N+ g> / <g, N- g> on mean-zero data.

    Stationary points are the plasmonic eigenvalues. A vanishing interior
    energy <g, N- g> means g is constant, where the quotient degenerates.
    """
    w = dtn.sample.weights
    g = np.asarray(g, dtype=float)
    denom = float(g @ (w * dtn.nminus.apply(g)))
    numer = -float(g @ (w * dtn.nplus.apply(g)))
    scale = float(g @ (w * g))
    if abs(denom) <= _DENOM_TOL * max(scale, 1.0):
        raise EInfinitySignal("spectrum2d", "rayleigh",
                              "quotient undefined on (near-)constant data "
                              "with zero interior energy",
                              "<g,N-g>=%.3g" % denom)
    return numer / denom


def criticality_residual(dtn, eps, g, step=1e-5, directions=20, seed=0):
    """Max first-order variation of the Rayleigh quotient at (eps, g).

    Probes random weighted-mean-zero directions with central differences;
    near zero at eigenpairs since they are critical points.
    """
    rng = np.random.default_rng(seed)
    w = dtn.sample.weights
    base = np.asarray(g, dtype=float)
    scale = np.sqrt(float(base @ (w * base)))
    worst = 0.0
    for _ in range(directions):
        v = rng.standard_normal(len(base))
        v -= (w @ v) / w.sum()
        v *= scale / np.sqrt(float(v @ (w * v)))
        plus = rayleigh(dtn, base + step * v)
        minus = rayleigh(dtn, base - step * v)
        worst = max(worst, abs(plus - minus) / (2.0 * step))
    return worst
