"""Real spherical harmonics on the unit sphere.

Transforms between coefficients and values on a Gauss-Legendre(theta) x
uniform(phi) grid, surface gradient and divergence, pointwise products with
band headroom, the exact plasmonic spectrum of the ball, and the diagonal
DtN multipliers.

Conventions: fully normalized real harmonics

    Y_{l,0} = Pbar_l^0(cos theta)
    Y_{l,m} = sqrt(2) Pbar_l^m(cos theta) cos(m phi),   m > 0
    Y_{l,-m} = sqrt(2) Pbar_l^m(cos theta) sin(m phi),  m > 0

with int_{S^2} Y^2 dS = 1. Coefficients are stored as an (L+1, 2L+1) array
indexed [l, m+L]. A grid of band L has L+1 Gauss-Legendre nodes in
cos(theta) and 2L+2 uniform nodes in phi, integrating products of total
spherical-polynomial degree up to 2L+1 exactly; band bookkeeping for
quadrature exactness is the caller's job and every routine here states its
requirement.

The divergence is the exact quadrature adjoint of the gradient, so the
integration-by-parts identity <grad f, V> = -<f, div V> holds to roundoff on
any grid, and it agrees with the analytic divergence whenever the quadrature
is exact for the integrand band.
"""

import functools
import math

import numpy as np

from .errors import (ConfigError, EInfinitySignal, ShapeMismatchError,
                     finite_number)

_SQRT2 = math.sqrt(2.0)


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _legendre_tables(L, x):
    """Normalized associated Legendre values and theta-derivatives.

    Returns arrays of shape (L+1, L+1, len(x)) indexed [l, m, node]; entries
    with m > l stay zero. Normalization: int Pbar_{lm}^2 sin t dt = 1/(2 pi).
    """
    s = np.sqrt(1.0 - x * x)
    p = np.zeros((L + 1, L + 1, len(x)))
    dp = np.zeros_like(p)
    p[0, 0] = math.sqrt(0.25 / math.pi)
    for m in range(1, L + 1):
        c = math.sqrt((2.0 * m + 1.0) / (2.0 * m))
        p[m, m] = c * s * p[m - 1, m - 1]
        dp[m, m] = c * (x * p[m - 1, m - 1] + s * dp[m - 1, m - 1])
    for m in range(L):
        c = math.sqrt(2.0 * m + 3.0)
        p[m + 1, m] = c * x * p[m, m]
        dp[m + 1, m] = c * (x * dp[m, m] - s * p[m, m])
    for m in range(L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[l, m] = a * (x * p[l - 1, m] - b * p[l - 2, m])
            dp[l, m] = a * (x * dp[l - 1, m] - s * p[l - 1, m] - b * dp[l - 2, m])
    return p, dp


class SphereGrid:
    """Quadrature grid with precomputed Legendre and trigonometric tables."""

    def __init__(self, L):
        self.L = L
        self.ntheta = L + 1
        self.nphi = 2 * L + 2
        x, wx = np.polynomial.legendre.leggauss(self.ntheta)
        self.x = x
        self.wx = wx
        self.sin_theta = np.sqrt(1.0 - x * x)
        self.phi = 2.0 * math.pi * np.arange(self.nphi) / self.nphi
        m = np.arange(L + 1)
        self.cosm = np.cos(np.outer(m, self.phi))
        self.sinm = np.sin(np.outer(m, self.phi))
        self.plm, self.dplm = _legendre_tables(L, x)
        self.phi_weight = 2.0 * math.pi / self.nphi
        self.area_weights = wx[:, None] * np.full(self.nphi, self.phi_weight)

    def integrate(self, values):
        return float(np.sum(self.area_weights * values))


@functools.lru_cache(maxsize=64)
def sphere_grid(L):
    return SphereGrid(L)


class SHField:
    """Coefficients of a band-limited function on the unit sphere."""

    def __init__(self, L, coeffs=None):
        self.L = L
        if coeffs is None:
            coeffs = np.zeros((L + 1, 2 * L + 1))
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (L + 1, 2 * L + 1):
            raise ShapeMismatchError(
                "sphere3d", "SHField",
                "coefficient array must be (L+1, 2L+1)",
                "got %s for L=%d" % (self.coeffs.shape, L))

    @classmethod
    def basis(cls, L, l, m):
        f = cls(L)
        f.coeffs[l, m + L] = 1.0
        return f

    def coeff(self, l, m):
        return float(self.coeffs[l, m + self.L])

    def set_coeff(self, l, m, c):
        self.coeffs[l, m + self.L] = c

    def copy(self):
        return SHField(self.L, self.coeffs.copy())

    def truncated(self, L_new):
        out = SHField(L_new)
        keep = min(self.L, L_new) + 1
        for l in range(keep):
            out.coeffs[l, L_new - l:L_new + l + 1] = \
                self.coeffs[l, self.L - l:self.L + l + 1]
        return out

    def scaled(self, factor):
        return SHField(self.L, factor * self.coeffs)

    def plus(self, other, factor=1.0):
        L = max(self.L, other.L)
        out = self.truncated(L)
        out.coeffs += other.truncated(L).coeffs * factor
        return out

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def degree_multiplied(self, multipliers):
        """Apply a diagonal-in-l multiplier (length L+1 array)."""
        return SHField(self.L, np.asarray(multipliers)[:, None] * self.coeffs)

    def to_json_dict(self):
        coeffs = []
        for l in range(self.L + 1):
            for m in range(-l, l + 1):
                coeffs.append({"l": l, "m": m, "c": float(self.coeffs[l, m + self.L])})
        return {"L": self.L, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, data):
        if set(data) != {"L", "coeffs"}:
            raise ConfigError("sphere3d", "SHField.from_json_dict",
                              "field spec must have exactly the keys L, coeffs",
                              "got %s" % sorted(data))
        L, coeffs = data["L"], data["coeffs"]
        if not _is_int(L) or L < 0 or not isinstance(coeffs, list):
            raise ConfigError("sphere3d", "SHField.from_json_dict",
                              "band limit L must be a nonnegative integer "
                              "and coeffs a list", "L=%r coeffs=%r" % (L, coeffs))
        f = cls(L)
        for entry in coeffs:
            if not isinstance(entry, dict) or set(entry) != {"l", "m", "c"}:
                raise ConfigError("sphere3d", "SHField.from_json_dict",
                                  "coefficient entries must have keys l, m, c",
                                  "got %r" % (entry,))
            l, m = entry["l"], entry["m"]
            if not (_is_int(l) and _is_int(m) and 0 <= l <= L and abs(m) <= l):
                raise ConfigError("sphere3d", "SHField.from_json_dict",
                                  "coefficient indices must be integers with "
                                  "0<=l<=L, |m|<=l",
                                  "l=%r m=%r L=%d" % (l, m, L))
            f.coeffs[l, m + L] = finite_number(entry["c"], "c", "sphere3d",
                                               "SHField.from_json_dict")
        return f


class TangentField:
    """Tangent vector field as (theta, phi) frame components on a grid."""

    def __init__(self, vtheta, vphi, grid):
        self.vtheta = np.asarray(vtheta, dtype=float)
        self.vphi = np.asarray(vphi, dtype=float)
        self.grid = grid
        shape = (grid.ntheta, grid.nphi)
        if self.vtheta.shape != shape or self.vphi.shape != shape:
            raise ShapeMismatchError("sphere3d", "TangentField",
                                     "components must match the grid shape",
                                     "grid %s" % (shape,))

    def scaled_pointwise(self, values):
        return TangentField(values * self.vtheta, values * self.vphi, self.grid)

    def dot(self, other):
        return self.vtheta * other.vtheta + self.vphi * other.vphi


def _check_band(grid, L, operation):
    if L > grid.L:
        raise ShapeMismatchError("sphere3d", operation,
                                 "grid band must cover the requested band "
                                 "(n_theta >= L+1, n_phi >= 2L+1)",
                                 "grid L=%d, requested L=%d" % (grid.L, L))


def _cos_sin_tilde(field):
    """Repack coefficients as cos/sin expansion weights over m >= 0."""
    L = field.L
    ctil = np.zeros((L + 1, L + 1))
    stil = np.zeros((L + 1, L + 1))
    ctil[:, 0] = field.coeffs[:, L]
    for m in range(1, L + 1):
        ctil[:, m] = _SQRT2 * field.coeffs[:, L + m]
        stil[:, m] = _SQRT2 * field.coeffs[:, L - m]
    return ctil, stil


def sh_synthesis(field, grid=None):
    """Evaluate a coefficient field on the grid (exact for any band)."""
    if grid is None:
        grid = sphere_grid(field.L)
    L = field.L
    _check_band(grid, L, "sh_synthesis")
    ctil, stil = _cos_sin_tilde(field)
    sub = slice(0, L + 1)
    gc = np.einsum("lm,lmi->mi", ctil, grid.plm[sub, sub])
    gs = np.einsum("lm,lmi->mi", stil, grid.plm[sub, sub])
    return gc.T @ grid.cosm[sub] + gs.T @ grid.sinm[sub]


def sh_analysis(values, L, grid=None):
    """Project grid values onto harmonics up to band L.

    Exact when the values come from a band-limited function with
    band(values) + L <= 2 grid.L + 1.
    """
    if grid is None:
        grid = sphere_grid(L)
    _check_band(grid, L, "sh_analysis")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.ntheta, grid.nphi):
        raise ShapeMismatchError("sphere3d", "sh_analysis",
                                 "values must match the grid shape",
                                 "got %s, grid %s"
                                 % (values.shape, (grid.ntheta, grid.nphi)))
    sub = slice(0, L + 1)
    fc = values @ grid.cosm[sub].T * grid.phi_weight
    fs = values @ grid.sinm[sub].T * grid.phi_weight
    wplm = grid.plm[sub, sub] * grid.wx
    araw = np.einsum("lmi,im->lm", wplm, fc)
    braw = np.einsum("lmi,im->lm", wplm, fs)
    out = SHField(L)
    out.coeffs[:, L] = araw[:, 0]
    for m in range(1, L + 1):
        out.coeffs[:, L + m] = _SQRT2 * araw[:, m]
        out.coeffs[:, L - m] = _SQRT2 * braw[:, m]
    return out


def surface_gradient(field, grid=None):
    """Tangential gradient as a TangentField.

    Default grid has one band of headroom so that quadratic expressions in
    the gradient of a band-L field are still integrated exactly.
    """
    if grid is None:
        grid = sphere_grid(field.L + 1)
    L = field.L
    _check_band(grid, L, "surface_gradient")
    ctil, stil = _cos_sin_tilde(field)
    sub = slice(0, L + 1)
    gtc = np.einsum("lm,lmi->mi", ctil, grid.dplm[sub, sub])
    gts = np.einsum("lm,lmi->mi", stil, grid.dplm[sub, sub])
    vtheta = gtc.T @ grid.cosm[sub] + gts.T @ grid.sinm[sub]
    marr = np.arange(L + 1)
    pc = stil * marr[None, :]
    ps = -ctil * marr[None, :]
    gpc = np.einsum("lm,lmi->mi", pc, grid.plm[sub, sub])
    gps = np.einsum("lm,lmi->mi", ps, grid.plm[sub, sub])
    vphi = (gpc.T @ grid.cosm[sub] + gps.T @ grid.sinm[sub]) \
        / grid.sin_theta[:, None]
    return TangentField(vtheta, vphi, grid)


def surface_divergence(vfield, L=None):
    """Divergence by quadrature adjointness: <div V, Y> := -<V, grad Y>.

    Agrees with the analytic divergence whenever the grid integrates
    V . grad(Y_{lm}) exactly for all l <= L.
    """
    grid = vfield.grid
    if L is None:
        L = grid.L
    _check_band(grid, L, "surface_divergence")
    sub = slice(0, L + 1)
    tc = vfield.vtheta @ grid.cosm[sub].T * grid.phi_weight
    ts = vfield.vtheta @ grid.sinm[sub].T * grid.phi_weight
    pc = vfield.vphi @ grid.cosm[sub].T * grid.phi_weight
    ps = vfield.vphi @ grid.sinm[sub].T * grid.phi_weight
    dwplm = grid.dplm[sub, sub] * grid.wx
    wplm_s = grid.plm[sub, sub] * (grid.wx / grid.sin_theta)
    theta_c = np.einsum("lmi,im->lm", dwplm, tc)
    theta_s = np.einsum("lmi,im->lm", dwplm, ts)
    phi_c = np.einsum("lmi,im->lm", wplm_s, pc)
    phi_s = np.einsum("lmi,im->lm", wplm_s, ps)
    marr = np.arange(L + 1)[None, :]
    out = SHField(L)
    out.coeffs[:, L] = -theta_c[:, 0]
    for m in range(1, L + 1):
        out.coeffs[:, L + m] = -_SQRT2 * (theta_c[:, m] - m * phi_s[:, m])
        out.coeffs[:, L - m] = -_SQRT2 * (theta_s[:, m] + m * phi_c[:, m])
    return out


def laplace_beltrami(field):
    """Surface Laplacian: multiplier -l(l+1) per degree."""
    l = np.arange(field.L + 1, dtype=float)
    return field.degree_multiplied(-l * (l + 1.0))


def sh_multiply(f, g, L=None):
    """Pointwise product re-analyzed to band L (default: full band f.L+g.L).

    The quadrature grid carries enough headroom that the analysis of the
    product (exact band f.L + g.L) is exact up to the requested L.
    """
    if L is None:
        L = f.L + g.L
    lq = (f.L + g.L + L) // 2 + 1
    grid = sphere_grid(lq)
    prod = sh_synthesis(f, grid) * sh_synthesis(g, grid)
    return sh_analysis(prod, L, grid)


def dtn_sphere_apply(field, side):
    """Diagonal DtN of the unit ball: l (interior), -(l+1) (exterior)."""
    l = np.arange(field.L + 1, dtype=float)
    if side == "interior":
        return field.degree_multiplied(l)
    if side == "exterior":
        return field.degree_multiplied(-(l + 1.0))
    raise ConfigError("sphere3d", "dtn_sphere_apply",
                      "side must be 'interior' or 'exterior'",
                      "got %r" % (side,))


def ball_spectrum(k):
    """Plasmonic eigenvalue (k+1)/k of the unit ball and its multiplicity."""
    if not isinstance(k, (int, np.integer)):
        raise ConfigError("sphere3d", "ball_spectrum",
                          "degree k must be an integer", "got %r" % (k,))
    if k < 0:
        raise ConfigError("sphere3d", "ball_spectrum",
                          "degree k must be nonnegative", "k=%d" % k)
    if k == 0:
        raise EInfinitySignal("sphere3d", "ball_spectrum",
                              "k=0 plasmons are interior constants with "
                              "eigenvalue at infinity", "")
    return (k + 1.0) / k, 2 * k + 1
