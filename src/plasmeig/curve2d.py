"""Smooth closed plane curves and the normal-shift perturbation map.

Curves are star-shaped and encoded either by exact parameters (circle,
ellipse) or as a radial Fourier descriptor r(theta). Sampling uses a
uniform parameter grid with exact differentiation of the parametrization,
so all geometry fields are spectrally accurate.

Sign convention for curvature: the boundary is parametrized
counterclockwise with the outward unit normal; the signed curvature is
kappa = -cross(x', x'') / |x'|^3, so the unit circle has kappa = -1 and
every accepted curve has total signed curvature -2*pi. (Convexity toward
the outward normal counts negative: the boundary bends away from it.)
"""

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError, GeometryError, PerturbationError

_TWOPI = 2.0 * math.pi


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
        return cls(cos=obj.get("cos", ()), sin=obj.get("sin", ()))

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

    def is_zero(self):
        return all(c == 0.0 for c in self.cos) and all(s == 0.0 for s in self.sin)


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
            self.radius = float(radius)
        elif kind == "ellipse":
            if a is None or b is None or a <= 0 or b <= 0:
                raise GeometryError("curve2d", "CurveParam",
                                    "ellipse semi-axes must be positive",
                                    "a=%r b=%r" % (a, b))
            self.a = float(a)
            self.b = float(b)
        elif kind == "fourier":
            self.radial = ShapeFn2D(cos=cos or (), sin=sin or ())
            rmin = self.radial.value(np.linspace(0, _TWOPI, 720, endpoint=False)).min()
            if rmin <= 0:
                raise GeometryError("curve2d", "CurveParam",
                                    "radial function must be positive",
                                    "min r = %.3g" % rmin)
        else:
            raise ConfigError("curve2d", "CurveParam",
                              "kind must be circle, ellipse or fourier",
                              "kind=%r" % kind)

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
        if kind == "circle":
            if "radius" not in obj:
                raise ConfigError("curve2d", "CurveParam.from_config",
                                  "circle needs 'radius'", "")
            return cls.circle(obj["radius"])
        if kind == "ellipse":
            if "a" not in obj or "b" not in obj:
                raise ConfigError("curve2d", "CurveParam.from_config",
                                  "ellipse needs 'a' and 'b'", "")
            return cls.ellipse(obj["a"], obj["b"])
        return cls.fourier(cos=obj.get("cos", ()), sin=obj.get("sin", ()))

    def to_config(self):
        if self.kind == "circle":
            return {"kind": "circle", "radius": self.radius}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "a": self.a, "b": self.b}
        return {"kind": "fourier", "cos": list(self.radial.cos),
                "sin": list(self.radial.sin)}

    def content_hash(self):
        blob = json.dumps(self.to_config(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

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
        if self.kind == "circle":
            R = self.radius
            u = np.stack([np.cos(t), np.sin(t)], axis=-1)
            up = np.stack([-np.sin(t), np.cos(t)], axis=-1)
            return np.stack([R * u, R * up, -R * u, -R * up])
        if self.kind == "ellipse":
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
    """

    def __init__(self, t, nodes, tangents, normals, curvature, speed, weights,
                 curve=None):
        self.t = t
        self.nodes = nodes
        self.tangents = tangents
        self.normals = normals
        self.curvature = curvature
        self.speed = speed
        self.weights = weights
        self.curve = curve
        for arr in (t, nodes, tangents, normals, curvature, speed, weights):
            arr.setflags(write=False)

    @property
    def n(self):
        return len(self.t)

    def inner(self, f, g):
        """Weighted (boundary L2) inner product of node vectors."""
        return float(np.dot(f * self.weights, g))

    def norm(self, f):
        return math.sqrt(max(self.inner(f, f), 0.0))


def _geometry_from_derivatives(t, der, curve=None):
    x, xp, xpp = der[0], der[1], der[2]
    speed = np.linalg.norm(xp, axis=-1)
    if speed.min() <= 0:
        raise GeometryError("curve2d", "sample_curve",
                            "parametrization must be regular (|x'| > 0)",
                            "min speed %.3g" % speed.min())
    tangents = xp / speed[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=-1)
    cross = xp[:, 0] * xpp[:, 1] - xp[:, 1] * xpp[:, 0]
    curvature = -cross / speed ** 3
    n = len(t)
    weights = (_TWOPI / n) * speed
    return CurveSample(t=t, nodes=x, tangents=tangents, normals=normals,
                       curvature=curvature, speed=speed, weights=weights,
                       curve=curve)


def sample_curve(curve, n):
    """Sample a curve at n uniform parameter values with exact geometry."""
    if n % 2 != 0 or n < 4:
        raise ConfigError("curve2d", "sample_curve",
                          "node count must be even and at least 4",
                          "N=%r" % n)
    t = _TWOPI * np.arange(n) / n
    der = curve.derivatives(t)
    return _geometry_from_derivatives(t, der, curve=curve)


def spectral_diff_matrix(n):
    """Differentiation matrix of the trigonometric interpolant on n nodes."""
    if n % 2 != 0:
        raise ConfigError("curve2d", "spectral_diff_matrix",
                          "node count must be even", "N=%r" % n)
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = 0.5 * (-1.0) ** diff / np.tan(math.pi * diff / n)
    np.fill_diagonal(mat, 0.0)
    return mat


def tangential_derivative(sample, values):
    """Arclength derivative of node values: spectral in the parameter,
    then divided by the parametrization speed."""
    dmat = spectral_diff_matrix(sample.n)
    dv = dmat @ np.asarray(values, dtype=float)
    if dv.ndim == 1:
        return dv / sample.speed
    return dv / sample.speed[:, None]


def perturbed_sample(curve, a, h, n):
    """Sample of the normal-shift image {x + h a(x) n(x)} at base-grid images.

    The i-th node is exactly the image of the i-th node of sample_curve(curve,
    n); derivatives of the shifted parametrization are formed from exact
    derivatives of the base curve and of the shape function, so the node
    correspondence used for operator transplantation carries no interpolation
    error. Raises if the shifted boundary stops being star-shaped (local
    self-intersection proxy).
    """
    if n % 2 != 0 or n < 4:
        raise ConfigError("curve2d", "perturbed_sample",
                          "node count must be even and at least 4",
                          "N=%r" % n)
    t = _TWOPI * np.arange(n) / n
    der = _perturbed_derivatives(curve, a, h, t)
    sample = _geometry_from_derivatives(t, der)
    _check_star_shaped(curve, a, h)
    return sample


def _perturbed_derivatives(curve, a, h, t):
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

    p = x + h * av * nrm
    pp = xp + h * (a1 * nrm + av * nrm_p)
    ppp = xpp + h * (a2 * nrm + 2.0 * a1 * nrm_p + av * nrm_pp)
    # third derivative of p is not needed downstream
    return np.stack([p, pp, ppp, np.zeros_like(p)])


def _check_star_shaped(curve, a, h, dense=720):
    t = _TWOPI * np.arange(dense) / dense
    der = _perturbed_derivatives(curve, a, h, t)
    p, pp = der[0], der[1]
    r2 = np.einsum("ij,ij->i", p, p)
    if r2.min() <= 0:
        raise PerturbationError("curve2d", "perturb_curve",
                                "shifted boundary must stay away from the origin",
                                "h=%g" % h)
    dtheta = (p[:, 0] * pp[:, 1] - p[:, 1] * pp[:, 0]) / r2
    if dtheta.min() <= 0:
        raise PerturbationError(
            "curve2d", "perturb_curve",
            "shifted boundary must stay star-shaped (no local self-intersection)",
            "h=%g, min dtheta/dt=%.3g" % (h, dtheta.min()))


def perturb_curve(curve, a, h, dense=None, tol=1e-13):
    """Re-encode the normal-shift image {x + h a(x) n(x)} as a radial curve.

    Returns a CurveParam whose trace is the shifted boundary. The circle with
    a constant shape function shifts to a circle; every other case is encoded
    as a radial Fourier descriptor obtained by solving theta(t) = alpha on a
    dense grid and transforming the radii. Node correspondence for operator
    transplantation is provided by perturbed_sample, which evaluates the same
    shifted parametrization at base-grid images.
    """
    if h == 0.0 or a.is_zero():
        return curve
    if curve.kind == "circle" and len(a.cos) <= 1 and not any(a.sin):
        shift = a.cos[0] if a.cos else 0.0
        radius = curve.radius + h * shift
        if radius <= 0:
            raise PerturbationError("curve2d", "perturb_curve",
                                    "shifted circle radius must be positive",
                                    "radius=%g" % radius)
        return CurveParam.circle(radius)

    _check_star_shaped(curve, a, h)
    if dense is None:
        base_modes = 1
        if curve.kind == "fourier":
            base_modes = max(len(curve.radial.cos), len(curve.radial.sin) + 1)
        amodes = max(len(a.cos), len(a.sin) + 1)
        dense = max(512, 16 * (base_modes + amodes))
    dense = int(2 ** math.ceil(math.log2(dense)))

    tgrid = _TWOPI * np.arange(dense) / dense
    p = _perturbed_derivatives(curve, a, h, tgrid)[0]
    theta = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
    theta0 = theta[0]
    targets = theta0 + _TWOPI * np.arange(dense) / dense

    # invert theta(t) = target by monotone interpolation + Newton polish;
    # extend one period so every target lies inside the table
    theta_ext = np.concatenate([theta, theta[:1] + _TWOPI])
    t_ext = np.concatenate([tgrid, tgrid[:1] + _TWOPI])
    tt = np.interp(targets, theta_ext, t_ext)
    for _ in range(60):
        der = _perturbed_derivatives(curve, a, h, tt)
        p_it, pp_it = der[0], der[1]
        th = np.arctan2(p_it[:, 1], p_it[:, 0])
        resid = np.angle(np.exp(1j * (th - targets)))
        dth = (p_it[:, 0] * pp_it[:, 1] - p_it[:, 1] * pp_it[:, 0]) / \
            np.einsum("ij,ij->i", p_it, p_it)
        tt = tt - resid / dth
        if np.max(np.abs(resid)) < 1e-14:
            break
    p_fin = _perturbed_derivatives(curve, a, h, tt)[0]
    radii = np.hypot(p_fin[:, 0], p_fin[:, 1])

    coeffs = np.fft.rfft(radii) / dense
    # radii sampled at angles theta0 + 2 pi j / dense: shift back to angle 0
    m = np.arange(len(coeffs))
    coeffs = coeffs * np.exp(1j * m * theta0)
    cos_c = 2.0 * coeffs.real
    cos_c[0] *= 0.5
    sin_c = -2.0 * coeffs.imag
    scale = max(np.max(np.abs(cos_c)), np.max(np.abs(sin_c)), 1.0)
    keep = max(np.max(np.nonzero(np.abs(cos_c) > tol * scale)[0], initial=0),
               np.max(np.nonzero(np.abs(sin_c) > tol * scale)[0], initial=0))
    keep = int(min(keep, dense // 2 - 1))
    return CurveParam.fourier(cos=cos_c[:keep + 1].tolist(),
                              sin=sin_c[1:keep + 1].tolist())
