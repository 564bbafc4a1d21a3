"""Smooth closed plane curves and the normal-shift perturbation map.

Curves are star-shaped and encoded either by exact parameters (circle,
ellipse) or as a radial Fourier descriptor r(theta); a circle samples as the
ellipse with equal semi-axes. Sampling uses a uniform parameter grid with
exact differentiation of the parametrization, so all geometry fields are
spectrally accurate. Node values are differentiated in arclength through
their trigonometric interpolant, by FFT (tangential_derivative); no (N, N)
differentiation matrix is formed.

Sign convention for curvature: the boundary is parametrized
counterclockwise with the outward unit normal; the signed curvature is
kappa = -cross(x', x'') / |x'|^3, so the unit circle has kappa = -1 and
every accepted curve has total signed curvature -2*pi. (Convexity toward
the outward normal counts negative: the boundary bends away from it.)
"""

import math

import numpy as np

from .errors import (ConfigError, GeometryError, PerturbationError,
                     finite_number, finite_numbers)

_TWOPI = 2.0 * math.pi
# dense parameter grid on which a radial function is checked for positivity
# and a normal shift for star shape
_STAR_CHECK_NODES = 720
# node offsets |x_i - x_j| whose squares, which bem2d's kernels take, are
# normal floats
_OFFSET_RANGE = (math.sqrt(np.finfo(float).tiny),
                 math.sqrt(np.finfo(float).max))


class ShapeFn2D:
    """Smooth periodic function of the curve parameter.

    Encoded by Fourier coefficients: a(t) = sum_m cos[m]*cos(m t)
    + sum_m sin[m-1]*sin(m t), the same descriptor layout used for radial
    curves.
    """

    def __init__(self, cos=(), sin=()):
        self.cos = tuple(float(c) for c in cos)
        self.sin = tuple(float(s) for s in sin)

    @classmethod
    def constant(cls, value):
        return cls(cos=(value,))

    @classmethod
    def from_config(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("curve2d", "ShapeFn2D.from_config",
                              "shape function config must be an object",
                              "got %r" % type(obj).__name__)
        unknown = set(obj) - {"cos", "sin"}
        if unknown:
            raise ConfigError("curve2d", "ShapeFn2D.from_config",
                              "shape function keys are 'cos' and 'sin'",
                              "unknown keys %s" % sorted(unknown))
        op = "ShapeFn2D.from_config"
        return cls(cos=finite_numbers(obj.get("cos", ()), "cos", "curve2d", op),
                   sin=finite_numbers(obj.get("sin", ()), "sin", "curve2d", op))

    def to_config(self):
        return {"cos": list(self.cos), "sin": list(self.sin)}

    def _eval(self, t, order):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for m, c in enumerate(self.cos):
            out += c * _trig_derivative(m, t, order, kind="cos")
        for i, s in enumerate(self.sin):
            m = i + 1
            out += s * _trig_derivative(m, t, order, kind="sin")
        return out

    def value(self, t):
        return self._eval(t, 0)

    def d1(self, t):
        return self._eval(t, 1)

    def d2(self, t):
        return self._eval(t, 2)


def _trig_derivative(m, t, order, kind):
    """order-th derivative of cos(m t) or sin(m t)."""
    if kind == "cos":
        if m == 0:
            return np.ones_like(t) if order == 0 else np.zeros_like(t)
        phase = order * (math.pi / 2.0)
        return (m ** order) * np.cos(m * t + phase)
    phase = order * (math.pi / 2.0)
    return (m ** order) * np.sin(m * t + phase)


class CurveParam:
    """Parameters of a smooth closed star-shaped curve.

    kind is one of 'circle' (radius), 'ellipse' (semi axes a >= b > 0) or
    'fourier' (radial function r(theta) as a ShapeFn2D-style descriptor,
    required positive).
    """

    def __init__(self, kind, radius=None, a=None, b=None, cos=None, sin=None):
        self.kind = kind
        if kind == "circle":
            if radius is None or radius <= 0:
                raise GeometryError("curve2d", "CurveParam",
                                    "circle radius must be positive",
                                    "radius=%r" % radius)
            # a circle samples as the ellipse with equal semi-axes
            self.radius = self.a = self.b = float(radius)
        elif kind == "ellipse":
            if a is None or b is None or a <= 0 or b <= 0:
                raise GeometryError("curve2d", "CurveParam",
                                    "ellipse semi-axes must be positive",
                                    "a=%r b=%r" % (a, b))
            self.a = float(a)
            self.b = float(b)
        elif kind == "fourier":
            self.radial = ShapeFn2D(cos=cos or (), sin=sin or ())
            rmin = self.radial.value(
                _nodes(_STAR_CHECK_NODES, "CurveParam")).min()
            if rmin <= 0:
                raise GeometryError("curve2d", "CurveParam",
                                    "radial function must be positive",
                                    "min r = %.3g" % rmin)
        else:
            raise ConfigError("curve2d", "CurveParam",
                              "kind must be circle, ellipse or fourier",
                              "kind=%r" % kind)
        # whether (x, y) -> (x, -y) maps the point at t to the one at -t
        self.mirrored = kind != "fourier" or not any(self.radial.sin)

    @classmethod
    def circle(cls, radius):
        return cls("circle", radius=radius)

    @classmethod
    def ellipse(cls, a, b):
        return cls("ellipse", a=a, b=b)

    @classmethod
    def fourier(cls, cos=(), sin=()):
        return cls("fourier", cos=cos, sin=sin)

    @classmethod
    def from_config(cls, obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError("curve2d", "CurveParam.from_config",
                              "curve config must be an object with a 'kind' key",
                              "got %r" % (obj,))
        kind = obj["kind"]
        allowed = {"circle": {"kind", "radius"},
                   "ellipse": {"kind", "a", "b"},
                   "fourier": {"kind", "cos", "sin"}}
        if kind not in allowed:
            raise ConfigError("curve2d", "CurveParam.from_config",
                              "kind must be circle, ellipse or fourier",
                              "kind=%r" % kind)
        unknown = set(obj) - allowed[kind]
        if unknown:
            raise ConfigError("curve2d", "CurveParam.from_config",
                              "unknown curve keys", "%s" % sorted(unknown))
        op = "CurveParam.from_config"
        if kind == "circle":
            if "radius" not in obj:
                raise ConfigError("curve2d", op, "circle needs 'radius'", "")
            return cls.circle(
                finite_number(obj["radius"], "radius", "curve2d", op))
        if kind == "ellipse":
            if "a" not in obj or "b" not in obj:
                raise ConfigError("curve2d", op, "ellipse needs 'a' and 'b'",
                                  "")
            return cls.ellipse(finite_number(obj["a"], "a", "curve2d", op),
                               finite_number(obj["b"], "b", "curve2d", op))
        return cls.fourier(
            cos=finite_numbers(obj.get("cos", ()), "cos", "curve2d", op),
            sin=finite_numbers(obj.get("sin", ()), "sin", "curve2d", op))

    def to_config(self):
        if self.kind == "circle":
            return {"kind": "circle", "radius": self.radius}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "a": self.a, "b": self.b}
        return {"kind": "fourier", "cos": list(self.radial.cos),
                "sin": list(self.radial.sin)}

    def scaled(self, factor):
        """The curve {factor * x}."""
        if self.kind == "circle":
            return CurveParam.circle(self.radius * factor)
        if self.kind == "ellipse":
            return CurveParam.ellipse(self.a * factor, self.b * factor)
        return CurveParam.fourier(
            cos=[factor * c for c in self.radial.cos],
            sin=[factor * s for s in self.radial.sin])

    def derivatives(self, t):
        """Positions and the first three exact t-derivatives, shape (4, n, 2)."""
        t = np.asarray(t, dtype=float)
        if self.kind != "fourier":
            a, b = self.a, self.b
            x = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
            xp = np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
            return np.stack([x, xp, -x, -xp])
        r0 = self.radial.value(t)
        r1 = self.radial.d1(t)
        r2 = self.radial.d2(t)
        r3 = self.radial._eval(t, 3)
        u = np.stack([np.cos(t), np.sin(t)], axis=-1)
        up = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        # x = r u;  u' = up, u'' = -u, u''' = -up
        x = r0[..., None] * u
        xp = r1[..., None] * u + r0[..., None] * up
        xpp = (r2 - r0)[..., None] * u + (2.0 * r1)[..., None] * up
        xppp = (r3 - 3.0 * r1)[..., None] * u + (3.0 * r2 - r0)[..., None] * up
        return np.stack([x, xp, xpp, xppp])


class CurveSample:
    """Discretization of a closed curve on a uniform parameter grid.

    Normals are unit length and point out of the enclosed domain; weights
    are the trapezoid weights (2*pi/N) * speed, so sum(weights) is the
    perimeter and dot products against weights are boundary integrals.
    mirrored: the parameters make node -j mod N the image (x, -y) of node j.
    """

    def __init__(self, t, nodes, normals, curvature, speed, weights,
                 mirrored=False):
        self.t = t
        self.nodes = nodes
        self.normals = normals
        self.curvature = curvature
        self.speed = speed
        self.weights = weights
        self.mirrored = mirrored
        for arr in (t, nodes, normals, curvature, speed, weights):
            arr.setflags(write=False)

    @property
    def n(self):
        return len(self.t)


def _geometry_from_derivatives(t, der, operation, mirrored=False):
    x, xp, xpp = der[0], der[1], der[2]
    # the extent of the nodes bounds every offset from above, and
    # neighbouring nodes give the smallest offsets of a resolved sample
    step = np.hypot(*(np.roll(x, -1, axis=0) - x).T).min()
    extent = np.hypot(*np.ptp(x, axis=0))
    if not (_OFFSET_RANGE[0] <= step and extent <= _OFFSET_RANGE[1]):
        raise GeometryError("curve2d", operation,
                            "squared node offsets must be normal floats "
                            "(%.3g <= |x_i - x_j| <= %.3g)" % _OFFSET_RANGE,
                            "smallest neighbour offset %.3g, extent %.3g"
                            % (step, extent))
    speed = np.linalg.norm(xp, axis=-1)
    if not (speed.min() > 0 and speed.max() < np.inf):
        raise GeometryError("curve2d", operation,
                            "parametrization must be regular (0 < |x'| < inf)",
                            "speed in [%.3g, %.3g]" % (speed.min(), speed.max()))
    tangents = xp / speed[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=-1)
    cross = xp[:, 0] * xpp[:, 1] - xp[:, 1] * xpp[:, 0]
    # speed ** 3 would leave the normal range past 5.6e102 and 2.8e-103
    curvature = -(cross / speed) / (speed * speed)
    n = len(t)
    weights = (_TWOPI / n) * speed
    return CurveSample(t=t, nodes=x, normals=normals, curvature=curvature,
                       speed=speed, weights=weights, mirrored=mirrored)


def _nodes(n, operation):
    """The uniform parameter grid t_j = 2 pi j / n of an even n >= 4."""
    if n % 2 != 0 or n < 4:
        raise ConfigError("curve2d", operation,
                          "node count must be even and at least 4",
                          "N=%r" % n)
    return _TWOPI * np.arange(n) / n


def sample_curve(curve, n):
    """Sample a curve at n uniform parameter values with exact geometry."""
    t = _nodes(n, "sample_curve")
    return _geometry_from_derivatives(t, curve.derivatives(t), "sample_curve",
                                      curve.mirrored)


def tangential_derivative(sample, values):
    """Arclength derivative of node values, one vector or a block of columns:
    the t-derivative of the trigonometric interpolant (by FFT, Nyquist mode
    set to zero), divided by the parametrization speed."""
    values = np.asarray(values, dtype=float)
    n = sample.n
    freq = np.arange(n // 2 + 1)
    freq[-1] = 0
    coef = np.fft.rfft(values, axis=0)
    coef *= (1j * freq).reshape((-1,) + (1,) * (values.ndim - 1))
    return (np.fft.irfft(coef, n, axis=0).T / sample.speed).T


def perturbed_sample(curve, a, steps, n):
    """Samples of the normal-shift images {x + h a(x) n(x)}, one per step h
    in steps, at base-grid images.

    The i-th node of each is exactly the image of the i-th node of
    sample_curve(curve, n); derivatives of the shifted parametrization are
    formed from exact derivatives of the base curve and of the shape
    function, so the node correspondence used for operator transplantation
    carries no interpolation error, and step 0 gives sample_curve(curve, n)
    itself. The same samples serve the eigenvalue finite differences:
    plasmonic eigenvalues depend on the shifted domain and not on how its
    boundary is parametrized, so no re-parametrization is needed. The base
    curve and the shape are evaluated once, on the n nodes and on the dense
    star-check grid, whatever the number of steps. A step h != 0 keeps the
    curve's mirror symmetry when a has no nonzero sin term. One stacked
    star check of all steps refuses the first step in order whose shift
    folds the boundary or stops being star-shaped (self-intersection proxies).
    """
    t = _nodes(n, "perturbed_sample")
    fine = _shift_terms(curve, a, _nodes(_STAR_CHECK_NODES,
                                         "perturbed_sample"))
    coarse = _shift_terms(curve, a, t)
    bounds = _star_check_bounds(steps, fine)
    samples = []
    for i, h in enumerate(steps):
        for name, lo, hi, contract in bounds:
            # written as not (x > 0) so that a NaN fails every test
            if not (lo[i] > 0 and hi[i] < np.inf):
                raise PerturbationError(
                    "curve2d", "perturbed_sample",
                    "%s, with finite %s > 0" % (contract, name),
                    "h=%g, %s in [%.3g, %.3g]" % (h, name, lo[i], hi[i]))
        samples.append(_geometry_from_derivatives(
            t, _shifted(coarse, h), "perturbed_sample",
            curve.mirrored and (h == 0 or not any(a.sin))))
    return samples


def _shift_terms(curve, a, t):
    """x, x', x'' of the base curve at t, a n and the t-derivatives of
    a n: h times these are the shift and its first two derivatives."""
    x, xp, xpp, xppp = curve.derivatives(t)
    speed = np.linalg.norm(xp, axis=-1)

    def rot(v):
        return np.stack([v[:, 1], -v[:, 0]], axis=-1)

    inv = 1.0 / speed
    dot_pp = np.einsum("ij,ij->i", xp, xpp)
    dot_ppp = np.einsum("ij,ij->i", xp, xppp)
    norm_pp2 = np.einsum("ij,ij->i", xpp, xpp)
    inv_p = -dot_pp * inv ** 3
    inv_pp = -(norm_pp2 + dot_ppp) * inv ** 3 + 3.0 * dot_pp ** 2 * inv ** 5

    nrm = rot(xp) * inv[:, None]
    nrm_p = rot(xpp) * inv[:, None] + rot(xp) * inv_p[:, None]
    nrm_pp = (rot(xppp) * inv[:, None] + 2.0 * rot(xpp) * inv_p[:, None]
              + rot(xp) * inv_pp[:, None])

    av = a.value(t)[:, None]
    a1 = a.d1(t)[:, None]
    a2 = a.d2(t)[:, None]
    return ((x, xp, xpp), (av, nrm, a1 * nrm + av * nrm_p,
                           a2 * nrm + 2.0 * a1 * nrm_p + av * nrm_pp))


def _shifted(terms, h):
    """p = x + h a n and its first two t-derivatives."""
    (x, xp, xpp), (av, nrm, dp, dpp) = terms
    return x + h * av * nrm, xp + h * dp, xpp + h * dpp


def _star_check_bounds(steps, terms):
    """(name, minima, maxima, contract) of each star-shape test value on
    the shifted star-check grid, one minimum and maximum per step."""
    p, pp, _ = _shifted(terms, np.asarray(steps, dtype=float)[:, None, None])
    with np.errstate(all="ignore"):  # an overflow or a NaN is refused
        r2 = np.einsum("sij,sij->si", p, p)
        dtheta = (p[..., 0] * pp[..., 1] - p[..., 1] * pp[..., 0]) / r2
        # x'.p' = |x'|^2 (1 - h a kappa): a sign change reverses the boundary
        fold = np.einsum("ij,sij->si", terms[0][1], pp)
    tests = (("|p|^2", r2, "shifted boundary must stay away from the origin"),
             ("dtheta/dt", dtheta, "shifted boundary must stay star-shaped "
              "(no local self-intersection)"),
             ("x'.p'", fold, "normal shift must not fold the boundary "
              "(1 - h a kappa > 0)"))
    return [(name, values.min(axis=1), values.max(axis=1), contract)
            for name, values, contract in tests]
