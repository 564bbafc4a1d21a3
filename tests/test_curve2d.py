"""Curve sampling, spectral differentiation and the normal-shift map."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plasmeig.curve2d import (CurveParam, ShapeFn2D, perturb_curve,
                              perturbed_sample, sample_curve,
                              spectral_diff_matrix, tangential_derivative)
from plasmeig.errors import ConfigError, GeometryError, PerturbationError

_TWOPI = 2.0 * math.pi


def total_signed_curvature(sample):
    return float(np.dot(sample.curvature, sample.weights))


def enclosed_area(sample):
    # divergence theorem: area = (1/2) oint x . n ds
    return 0.5 * float(np.dot(np.einsum("ij,ij->i", sample.nodes,
                                        sample.normals), sample.weights))


def test_circle_sample_geometry_exact():
    sample = sample_curve(CurveParam.circle(2.0), 64)
    assert np.allclose(sample.speed, 2.0, atol=1e-14)
    assert np.allclose(sample.curvature, -0.5, atol=1e-14)
    assert abs(sample.weights.sum() - _TWOPI * 2.0) < 1e-12
    radial = np.einsum("ij,ij->i", sample.nodes, sample.normals)
    assert np.allclose(radial, 2.0, atol=1e-13)


def test_ellipse_area_and_turning_number():
    sample = sample_curve(CurveParam.ellipse(2.0, 1.0), 128)
    assert abs(enclosed_area(sample) - math.pi * 2.0) < 1e-12
    assert abs(total_signed_curvature(sample) + _TWOPI) < 1e-10


def test_normals_have_unit_length_and_point_outward():
    curve = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])
    sample = sample_curve(curve, 128)
    assert np.allclose(np.linalg.norm(sample.normals, axis=1), 1.0, atol=1e-14)
    # for a star-shaped curve the outward normal sees the origin behind it
    assert np.einsum("ij,ij->i", sample.nodes, sample.normals).min() > 0.0


def test_grid_nesting_on_refinement():
    curve = CurveParam.fourier(cos=[1.0, 0.2], sin=[0.0, 0.1])
    coarse = sample_curve(curve, 64)
    fine = sample_curve(curve, 128)
    assert np.array_equal(coarse.nodes, fine.nodes[::2])


def test_spectral_diff_exact_on_trig_polynomials():
    n = 32
    t = _TWOPI * np.arange(n) / n
    dmat = spectral_diff_matrix(n)
    for m in (1, 3, 7, 11):
        assert np.max(np.abs(dmat @ np.sin(m * t) - m * np.cos(m * t))) < 1e-11
        assert np.max(np.abs(dmat @ np.cos(m * t) + m * np.sin(m * t))) < 1e-11


def test_tangential_derivative_of_coordinates_is_tangent():
    sample = sample_curve(CurveParam.ellipse(2.0, 1.0), 96)
    dx = tangential_derivative(sample, sample.nodes[:, 0])
    dy = tangential_derivative(sample, sample.nodes[:, 1])
    assert np.max(np.abs(dx - sample.tangents[:, 0])) < 1e-11
    assert np.max(np.abs(dy - sample.tangents[:, 1])) < 1e-11


def test_perturbed_sample_at_zero_matches_base():
    curve = CurveParam.ellipse(2.0, 1.0)
    a = ShapeFn2D(cos=[0.0, 1.0], sin=[0.3])
    base = sample_curve(curve, 64)
    shifted = perturbed_sample(curve, a, 0.0, 64)
    assert np.array_equal(shifted.nodes, base.nodes)
    assert np.max(np.abs(shifted.curvature - base.curvature)) < 1e-13


def test_perturbed_circle_with_constant_shift_is_circle():
    sample = perturbed_sample(CurveParam.circle(1.0), ShapeFn2D.constant(0.5),
                              0.2, 64)
    assert np.allclose(np.hypot(sample.nodes[:, 0], sample.nodes[:, 1]),
                       1.1, atol=1e-14)
    assert np.allclose(sample.curvature, -1.0 / 1.1, atol=1e-13)
    assert np.allclose(sample.speed, 1.1, atol=1e-14)


def test_perturb_curve_circle_constant_stays_exact():
    out = perturb_curve(CurveParam.circle(2.0), ShapeFn2D.constant(-1.0), 0.5)
    assert out.kind == "circle"
    assert out.radius == 1.5


def test_perturb_curve_radial_reencoding_matches_shift():
    curve = CurveParam.ellipse(2.0, 1.0)
    a = ShapeFn2D(cos=[0.0, 1.0])
    h = 1e-2
    encoded = perturb_curve(curve, a, h)
    shifted = perturbed_sample(curve, a, h, 256)
    theta = np.arctan2(shifted.nodes[:, 1], shifted.nodes[:, 0])
    r_true = np.hypot(shifted.nodes[:, 0], shifted.nodes[:, 1])
    assert np.max(np.abs(encoded.radial.value(theta) - r_true)) < 1e-10


def test_perturb_curve_zero_step_returns_same_object():
    curve = CurveParam.ellipse(2.0, 1.0)
    assert perturb_curve(curve, ShapeFn2D(cos=[0.0, 1.0]), 0.0) is curve
    assert perturb_curve(curve, ShapeFn2D(), 0.3) is curve


def test_shift_losing_star_shape_is_rejected():
    with pytest.raises(PerturbationError):
        perturbed_sample(CurveParam.ellipse(4.0, 1.0),
                         ShapeFn2D(sin=[0.0, 1.0]), 0.8, 64)
    with pytest.raises(PerturbationError):
        perturb_curve(CurveParam.circle(1.0), ShapeFn2D.constant(-1.0), 1.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        sample_curve(CurveParam.circle(1.0), 63)
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "circle", "radius": 1.0, "extra": 1})
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "ellipse", "a": 2.0})
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "triangle"})
    with pytest.raises(GeometryError):
        CurveParam.circle(-1.0)
    with pytest.raises(GeometryError):
        CurveParam.fourier(cos=[0.1, 1.0])


def test_config_roundtrip():
    curve = CurveParam.fourier(cos=[1.0, 0.2], sin=[0.0, 0.1])
    again = CurveParam.from_config(curve.to_config())
    assert again.to_config() == curve.to_config()
    assert curve.scaled(2.0).to_config() != curve.to_config()


def test_scaled_curve_geometry():
    base = sample_curve(CurveParam.ellipse(2.0, 1.0), 64)
    doubled = sample_curve(CurveParam.ellipse(2.0, 1.0).scaled(2.0), 64)
    assert np.allclose(doubled.nodes, 2.0 * base.nodes, atol=1e-13)
    assert np.allclose(doubled.curvature, 0.5 * base.curvature, atol=1e-13)


_small = st.floats(min_value=-0.08, max_value=0.08, allow_nan=False)


@given(c1=_small, c2=_small, s1=_small, s2=_small)
def test_fourier_curve_invariants(c1, c2, s1, s2):
    curve = CurveParam.fourier(cos=[1.0, c1, c2], sin=[s1, s2])
    sample = sample_curve(curve, 128)
    assert abs(total_signed_curvature(sample) + _TWOPI) < 1e-8
    area = enclosed_area(sample)
    perimeter = float(sample.weights.sum())
    assert area > 0.0
    # isoperimetric inequality, with equality only for circles
    assert 4.0 * math.pi * area <= perimeter ** 2 * (1.0 + 1e-12)
