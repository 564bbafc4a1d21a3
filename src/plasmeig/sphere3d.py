"""Real spherical harmonics on the unit sphere.

Transforms between coefficients and values on a Gauss-Legendre(theta) x
uniform(phi) grid, surface gradient and divergence, pointwise products with
band headroom, the exact plasmonic spectrum of the ball, and the diagonal
interior DtN multipliers.

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

One synthesis kernel (_to_grid) and its exact quadrature adjoint
(_from_grid) carry all four transforms; _unpack and _pack alone know the
coefficient layout. Synthesis and the gradient are the kernel, analysis and
the divergence its adjoint, so <grad f, V> = -<f, div V> holds to roundoff
on any grid, and the divergence agrees with the analytic one whenever the
quadrature is exact for the integrand band. A tangent field is one
(2, ntheta, nphi) array of (theta, phi) frame components on a grid; every
transform takes its grid explicitly, and analysis and the divergence
their output band.
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
    The nodes must avoid the poles (Gauss nodes do), since the diagonal
    derivative is m cot(theta) Pbar_{mm}.
    """
    s = np.sqrt(1.0 - x * x)
    m = np.arange(L + 1)
    # row L+1 is a zero pad standing in for l = -1
    p = np.zeros((L + 2, L + 1, len(x)))
    dp = np.zeros_like(p)
    # Pbar_mm = Pbar_00 prod_{j=1..m} sqrt((2j+1)/(2j)) sin^m; ratio[0] = 1
    ratio = np.sqrt((2.0 * m + 1.0) / np.maximum(2.0 * m, 1.0))
    p[m, m] = (math.sqrt(0.25 / math.pi) * np.cumprod(ratio)[:, None]
               * s ** m[:, None])
    dp[m, m] = m[:, None] * (x / s) * p[m, m]
    for l in range(1, L + 1):
        ml = m[:l]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - ml * ml))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - ml * ml)
                    / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        p[l, :l] = a * (x * p[l - 1, :l] - b * p[l - 2, :l])
        dp[l, :l] = a * (x * dp[l - 1, :l] - s * p[l - 1, :l]
                         - b * dp[l - 2, :l])
    return p[:L + 1], dp[:L + 1]


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

    def set_coeff(self, l, m, c):
        self.coeffs[l, m + self.L] = c

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
        seen = set()
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
            if (l, m) in seen:
                raise ConfigError("sphere3d", "SHField.from_json_dict",
                                  "coeffs must list each index pair (l, m) "
                                  "once", "duplicate l=%d m=%d" % (l, m))
            seen.add((l, m))
            f.coeffs[l, m + L] = finite_number(entry["c"], "c", "sphere3d",
                                               "SHField.from_json_dict")
        return f


def _check_band(grid, L, operation):
    if L > grid.L:
        raise ShapeMismatchError("sphere3d", operation,
                                 "grid band must cover the requested band "
                                 "(n_theta >= L+1, n_phi >= 2L+1)",
                                 "grid L=%d, requested L=%d" % (grid.L, L))


def _unpack(field):
    """Cos/sin expansion weights (c, s), each indexed [l, m >= 0]."""
    L = field.L
    c = _SQRT2 * field.coeffs[:, L:]
    c[:, 0] = field.coeffs[:, L]
    s = np.zeros_like(c)
    s[:, 1:] = _SQRT2 * field.coeffs[:, :L][:, ::-1]
    return c, s


def _pack(c, s):
    """Inverse of _unpack: the field with cos/sin weights (c, s)."""
    L = c.shape[0] - 1
    out = SHField(L)
    out.coeffs[:, L:] = _SQRT2 * c
    out.coeffs[:, L] = c[:, 0]
    out.coeffs[:, :L] = _SQRT2 * s[:, :0:-1]
    return out


def _to_grid(c, s, table, grid):
    """Values of sum_{l,m} table[l, m] (c[l, m] cos m phi + s[l, m] sin m phi)."""
    sub = slice(0, c.shape[0])
    gc, gs = np.einsum("klm,lmi->kim", np.stack((c, s)), table[sub, sub])
    return gc @ grid.cosm[sub] + gs @ grid.sinm[sub]


def _from_grid(values, table, weights, grid, L):
    """Quadrature adjoint of _to_grid up to band L, theta weights given."""
    sub = slice(0, L + 1)
    fc = values @ grid.cosm[sub].T * grid.phi_weight
    fs = values @ grid.sinm[sub].T * grid.phi_weight
    wtable = table[sub, sub] * weights
    return (np.einsum("lmi,im->lm", wtable, fc),
            np.einsum("lmi,im->lm", wtable, fs))


def sh_synthesis(field, grid):
    """Evaluate a coefficient field on the grid (exact for any band)."""
    _check_band(grid, field.L, "sh_synthesis")
    return _to_grid(*_unpack(field), grid.plm, grid)


def _check_shape(values, lead, grid, operation):
    """Refuse values whose trailing axes are not the grid's."""
    if values.shape != lead + (grid.ntheta, grid.nphi):
        raise ShapeMismatchError("sphere3d", operation,
                                 "values must match the grid shape",
                                 "got %s, grid %s"
                                 % (values.shape, (grid.ntheta, grid.nphi)))


def sh_analysis(values, L, grid):
    """Project grid values onto harmonics up to band L.

    Exact when the values come from a band-limited function with
    band(values) + L <= 2 grid.L + 1.
    """
    _check_band(grid, L, "sh_analysis")
    values = np.asarray(values, dtype=float)
    _check_shape(values, (), grid, "sh_analysis")
    return _pack(*_from_grid(values, grid.plm, grid.wx, grid, L))


def surface_gradient(field, grid):
    """Tangential gradient as one (2, ntheta, nphi) array of (theta, phi)
    frame components on the grid."""
    _check_band(grid, field.L, "surface_gradient")
    c, s = _unpack(field)
    m = np.arange(field.L + 1)
    vtheta = _to_grid(c, s, grid.dplm, grid)
    vphi = _to_grid(m * s, -m * c, grid.plm, grid) / grid.sin_theta[:, None]
    return np.stack((vtheta, vphi))


def surface_divergence(v, grid, L):
    """Divergence of the (2, ntheta, nphi) tangent field v by quadrature
    adjointness: <div V, Y> := -<V, grad Y>.

    Agrees with the analytic divergence whenever the grid integrates
    V . grad(Y_{lm}) exactly for all l <= L.
    """
    _check_band(grid, L, "surface_divergence")
    _check_shape(v, (2,), grid, "surface_divergence")
    tc, ts = _from_grid(v[0], grid.dplm, grid.wx, grid, L)
    pc, ps = _from_grid(v[1], grid.plm, grid.wx / grid.sin_theta, grid, L)
    m = np.arange(L + 1)
    return _pack(m * ps - tc, -m * pc - ts)


def sh_multiply(f, g, L):
    """Pointwise product re-analyzed to band L.

    The quadrature grid carries enough headroom that the analysis of the
    product (exact band f.L + g.L) is exact up to the requested L.
    """
    lq = (f.L + g.L + L) // 2 + 1
    grid = sphere_grid(lq)
    prod = sh_synthesis(f, grid) * sh_synthesis(g, grid)
    return sh_analysis(prod, L, grid)


def dtn_sphere_apply(field):
    """Interior DtN of the unit ball: degree l is multiplied by l."""
    l = np.arange(field.L + 1, dtype=float)
    return SHField(field.L, l[:, None] * field.coeffs)


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
