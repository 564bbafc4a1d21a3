"""Real spherical harmonics on the unit sphere.

Transforms between coefficients and values on a Gauss-Legendre(theta) x
uniform(phi) grid, surface gradient and divergence, the exact plasmonic
spectrum of the ball, and the diagonal interior DtN multipliers.

Conventions: fully normalized real harmonics

    Y_{l,0} = Pbar_l^0(cos theta)
    Y_{l,m} = sqrt(2) Pbar_l^m(cos theta) cos(m phi),   m > 0
    Y_{l,-m} = sqrt(2) Pbar_l^m(cos theta) sin(m phi),  m > 0

with int_{S^2} Y^2 dS = 1. Coefficients are stored as an (L+1, 2L+1) array
indexed [l, m+L]. A grid of band L has L+1 Gauss-Legendre nodes in
cos(theta) and 2L+2 uniform nodes in phi, integrating products of total
spherical-polynomial degree up to 2L+1 exactly; exact_grid(degree, band),
the smallest with 2L+1 >= degree and L >= band, sizes every grid of the
perturbation chain, and every routine here states its requirement.

The only transforms are synthesize(grid, fields, gradients), the values of
a list of fields and the gradients of another as arrays with a leading
stack axis, and its adjoint analyze(grid, L, values, tangents), the
projections of scalar values and the divergences of tangent fields up to
band L. A pointwise product is a product of synthesized values. Both rest
on one synthesis kernel (_to_grid) and its exact quadrature adjoint
(_from_grid), called once per Legendre table: the sum over l is one matrix
product per order m, and the sum over m and cos/sin one product for the
stack, against the grid's trig table, which also holds the sqrt(2) of the
real harmonics. _weights and _pack alone know the coefficient layout. The
divergence is the adjoint of the gradient, so <grad f, V> = -<f, div V>
holds to roundoff on any grid, and it agrees with the analytic divergence
whenever the quadrature is exact for the integrand band. A tangent field is one (2, ntheta, nphi) array of (theta,
phi) frame components. degree_harmonics reads the 2k+1 harmonics of degree
k and their gradients off row l = k of the tables, with no transform.
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
    """Quadrature grid with precomputed Legendre and trigonometric tables.

    trig[m, 0] and trig[m, 1] hold cos(m phi) and sin(m phi) on the phi
    nodes, times the sqrt(2) of the real harmonics for m > 0, followed by
    their phi-derivatives: shape (L+1, 2, 2 nphi).
    """

    def __init__(self, L):
        self.L = L
        self.ntheta = L + 1
        self.nphi = 2 * L + 2
        x, wx = np.polynomial.legendre.leggauss(self.ntheta)
        self.wx = wx
        self.sin_theta = np.sqrt(1.0 - x * x)
        self.phi = 2.0 * math.pi * np.arange(self.nphi) / self.nphi
        m = np.arange(L + 1)[:, None]
        mphi = m * self.phi
        norm = np.where(m > 0, _SQRT2, 1.0)
        cos, sin = norm * np.cos(mphi), norm * np.sin(mphi)
        self.trig = np.concatenate((np.stack((cos, sin), axis=1),
                                    np.stack((-m * sin, m * cos), axis=1)),
                                   axis=-1)
        self.plm, self.dplm = _legendre_tables(L, x)
        self.phi_weight = 2.0 * math.pi / self.nphi
        self.area_weights = wx[:, None] * np.full(self.nphi, self.phi_weight)

    def integrate(self, values):
        return float(np.sum(self.area_weights * values))


@functools.lru_cache(maxsize=64)
def sphere_grid(L):
    return SphereGrid(L)


def exact_grid(degree, band):
    """The smallest grid exact for degree (2L+1 >= degree) and band."""
    return sphere_grid(max(degree // 2, band))


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
        out, keep = SHField(L_new), min(self.L, L_new)
        out.coeffs[:keep + 1, L_new - keep:L_new + keep + 1] = \
            self.coeffs[:keep + 1, self.L - keep:self.L + keep + 1]
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
        if (L + 1) * (2 * L + 1) > np.iinfo(np.intp).max // 8:
            raise ConfigError("sphere3d", "SHField.from_json_dict",
                              "band limit L must leave numpy an addressable "
                              "(L+1, 2L+1) float table", "L=%d" % L)
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


def _weights(fields, L):
    """Cos/sin weights cs[m, l, i, 0|1] (m >= 0) of fields[i], padded to
    band L. The sin weight at m = 0 repeats the cos one; the zero row
    sin(0 phi) of the tables cancels it."""
    coeffs = np.zeros((2 * L + 1, L + 1, len(fields)))
    for i, f in enumerate(fields):
        coeffs[L - f.L:L + f.L + 1, :f.L + 1, i] = f.coeffs.T
    return np.stack((coeffs[L:], coeffs[L::-1]), axis=-1)


def _pack(cs):
    """Coefficient arrays [i, l, m+L] of the cos/sin weights cs[m, l, i, j]."""
    return np.concatenate((cs[:0:-1, ..., 1], cs[..., 0])).transpose(2, 1, 0)


def _to_grid(cs, table, trig):
    """Values sum_{l,m,j} table[l, m] cs[m, l, i, j] trig[m, j] of a stack of
    cos/sin weights: one (i, ntheta, trig columns) array. The sum over l is
    one matrix product per m, the sum over (m, j) one product for all."""
    n, _, count, _ = cs.shape
    nt = table.shape[-1]
    g = table[:n, :n].transpose(1, 2, 0) @ cs.reshape(n, n, 2 * count)
    g = g.reshape(n, nt, count, 2).transpose(2, 1, 0, 3)
    return g.reshape(count, nt, 2 * n) @ trig[:n].reshape(2 * n, -1)


def _from_grid(values, table, weights, trig, grid, L):
    """Quadrature adjoint of _to_grid up to band L, theta weights given:
    the cos/sin weights cs[m, l, i, j] of the stack values[i]."""
    n, count, nt = L + 1, len(values), grid.ntheta
    f = values @ trig[:n].reshape(2 * n, -1).T * grid.phi_weight
    f = f.reshape(count, nt, n, 2).transpose(2, 1, 0, 3)
    cs = (table[:n, :n] * weights).transpose(1, 0, 2) \
        @ f.reshape(n, nt, 2 * count)
    return cs.reshape(n, n, count, 2)


def _stacked(arrays, lead, grid, operation):
    """A stack of grid arrays as one (n,) + lead + (ntheta, nphi) array;
    any other shape is refused."""
    want = lead + (grid.ntheta, grid.nphi)
    out = np.asarray(arrays, dtype=float)
    if out.shape == (0,):
        return out.reshape((0,) + want)
    if out.shape[1:] != want:
        raise ShapeMismatchError("sphere3d", operation,
                                 "values must match the grid shape",
                                 "got %s, grid %s"
                                 % (out.shape[1:], (grid.ntheta, grid.nphi)))
    return out


def synthesize(grid, fields=(), gradients=()):
    """Values of each field of fields and tangential gradients of each field
    of gradients on the grid (exact for any band).

    Returns one (len(fields), ntheta, nphi) array and one
    (len(gradients), 2, ntheta, nphi) array of (theta, phi) frame
    components, from one kernel call per Legendre table: the values and the
    phi-derivatives share the sum over plm, the theta-derivatives sum over
    dplm.
    """
    stack = list(fields) + list(gradients)
    L = max((f.L for f in stack), default=0)
    _check_band(grid, L, "synthesize")
    cs = _weights(stack, L)
    nf, nphi = len(fields), grid.nphi
    if not gradients:
        return _to_grid(cs, grid.plm, grid.trig[..., :nphi]), \
            np.empty((0, 2, grid.ntheta, nphi))
    both = _to_grid(cs, grid.plm, grid.trig)
    grads = np.stack((_to_grid(cs[:, :, nf:], grid.dplm,
                               grid.trig[..., :nphi]),
                      both[nf:, :, nphi:] / grid.sin_theta[:, None]), axis=1)
    return both[:nf, :, :nphi], grads


def analyze(grid, L, values=(), tangents=()):
    """Fields up to band L: the projection of each scalar of values onto the
    harmonics, then the divergence of each (2, ntheta, nphi) tangent field of
    tangents by quadrature adjointness, <div V, Y> := -<V, grad Y>.

    The adjoint of synthesize, with one kernel call per Legendre table. The
    projection is exact when band(values) + L <= 2 grid.L + 1; the divergence
    agrees with the analytic one whenever the grid integrates V . grad(Y_lm)
    exactly for all l <= L.
    """
    _check_band(grid, L, "analyze")
    values = _stacked(values, (), grid, "analyze")
    tangents = _stacked(tangents, (2,), grid, "analyze")
    ns, nphi = len(values), grid.nphi
    if not len(tangents):
        cs = _from_grid(values, grid.plm, grid.wx, grid.trig[..., :nphi],
                        grid, L)
    else:
        rows = np.zeros((ns + len(tangents), grid.ntheta, 2 * nphi))
        rows[:ns, :, :nphi] = values
        rows[ns:, :, nphi:] = tangents[:, 1] / grid.sin_theta[:, None]
        cs = _from_grid(rows, grid.plm, grid.wx, grid.trig, grid, L)
        cs[:, :, ns:] = -(cs[:, :, ns:]
                          + _from_grid(tangents[:, 0], grid.dplm, grid.wx,
                                       grid.trig[..., :nphi], grid, L))
    return [SHField(L, c) for c in _pack(cs)]


def degree_harmonics(k, grid):
    """Values (2k+1, ntheta, nphi) and tangential gradients
    (2k+1, 2, ntheta, nphi) of Y_{k,m}, m = -k..k, read off row l = k of the
    grid's tables in one broadcast: synthesize of SHField.basis(k, k, m)
    without a transform."""
    _check_band(grid, k, "degree_harmonics")
    m = np.arange(-k, k + 1)
    rows = grid.trig[np.abs(m), (m < 0).astype(int)][:, None, :]
    p = grid.plm[k, np.abs(m)][:, :, None]
    dp = grid.dplm[k, np.abs(m)][:, :, None]
    nphi = grid.nphi
    grads = np.stack((dp * rows[..., :nphi],
                      p / grid.sin_theta[:, None] * rows[..., nphi:]), axis=1)
    return p * rows[..., :nphi], grads


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
