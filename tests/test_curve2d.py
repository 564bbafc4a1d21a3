"""Curve sampling, spectral differentiation and the normal-shift map."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plasmeig.curve2d import (CurveParam, CurveSample, ShapeFn2D,
                              _geometry_from_derivatives, perturbed_sample,
                              sample_curve, tangential_derivative)
from plasmeig.errors import (ConfigError, GeometryError, PerturbationError,
                             PlasmeigError)

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


def test_tangential_derivative_exact_on_trig_polynomials():
    # on the unit circle d/ds is d/dt; the Nyquist mode cos(n t / 2) has no
    # derivative on the grid and maps to zero
    n = 32
    sample = sample_curve(CurveParam.circle(1.0), n)
    t = sample.t
    for m in (1, 3, 7, 11):
        assert np.max(np.abs(tangential_derivative(sample, np.sin(m * t))
                             - m * np.cos(m * t))) < 1e-11
        assert np.max(np.abs(tangential_derivative(sample, np.cos(m * t))
                             + m * np.sin(m * t))) < 1e-11
    nyquist = tangential_derivative(sample, np.cos(n // 2 * t))
    assert np.max(np.abs(nyquist)) < 1e-12
    # a block of columns is differentiated column by column
    kite = sample_curve(CurveParam.fourier(cos=[1.0, 0.25, 0.15],
                                           sin=[0.0, 0.0, 0.05]), n)
    block = np.random.default_rng(1).standard_normal((n, 5))
    got = tangential_derivative(kite, block)
    assert got.shape == block.shape
    for j in range(block.shape[1]):
        assert np.array_equal(got[:, j],
                              tangential_derivative(kite, block[:, j]))


@pytest.mark.parametrize("radius", [1.0, 0.37, 2.5, 1e-3])
@pytest.mark.parametrize("n", [64, 128, 1024])
def test_circle_samples_as_ellipse_bit_for_bit(radius, n):
    circle = sample_curve(CurveParam.circle(radius), n)
    ellipse = sample_curve(CurveParam.ellipse(radius, radius), n)
    for field in ("t", "nodes", "normals", "curvature", "speed", "weights"):
        got, want = getattr(circle, field), getattr(ellipse, field)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # the circle's own closed form, R (cos t, sin t), bit for bit
    t = circle.t
    assert np.array_equal(circle.nodes,
                          np.stack([radius * np.cos(t), radius * np.sin(t)],
                                   axis=-1))
    assert CurveParam.circle(radius).to_config() == {"kind": "circle",
                                                      "radius": radius}
    assert CurveParam.circle(radius).scaled(2.0).kind == "circle"


def test_tangential_derivative_of_coordinates_is_tangent():
    sample = sample_curve(CurveParam.ellipse(2.0, 1.0), 96)
    # the unit tangent is the outward normal turned a quarter turn back
    dx = tangential_derivative(sample, sample.nodes[:, 0])
    dy = tangential_derivative(sample, sample.nodes[:, 1])
    assert np.max(np.abs(dx + sample.normals[:, 1])) < 1e-11
    assert np.max(np.abs(dy - sample.normals[:, 0])) < 1e-11


def test_perturbed_sample_at_zero_matches_base():
    # step 0 is sample_curve itself, bit for bit, so a finite-difference job
    # takes its base sample from the call that forms its shifted ones
    a = ShapeFn2D(cos=[0.0, 1.0], sin=[0.3])
    for curve in (CurveParam.ellipse(2.0, 1.0),
                  CurveParam.fourier(cos=[1.0, 0.25, 0.15],
                                     sin=[0.0, 0.0, 0.05])):
        base = sample_curve(curve, 64)
        shifted, _ = perturbed_sample(curve, a, [0.0, 1e-2], 64)
        for field in ("t", "nodes", "normals", "curvature", "speed",
                      "weights"):
            assert np.array_equal(getattr(shifted, field),
                                  getattr(base, field))


def mirror_mismatch(sample):
    """Largest relative distance of node -j mod N, with its normal, speed
    and curvature, from the reflection (x, -y) of node j's."""
    f = np.column_stack([sample.nodes, sample.normals, sample.speed,
                         sample.curvature])
    mirror = -np.arange(sample.n) % sample.n
    return np.max(np.abs(f[mirror] * [1.0, -1.0, 1.0, -1.0, 1.0, 1.0] - f)
                  / np.abs(f).max(axis=0))


def test_mirror_symmetry_comes_from_the_parameters():
    # circles, ellipses and radial curves with no nonzero sin term are
    # mirrored; a normal shift keeps it at h = 0 and, for an even shape, at
    # every step. The flagged samples are mirror images to roundoff; a
    # sin term of 1e-13, below roundoff in the nodes, counts as asymmetric,
    # as does a sample built by hand
    even, odd = ShapeFn2D(cos=(0.1, 0.2)), ShapeFn2D(cos=(0.1,), sin=(0, 0.2))
    for curve, mirrored in (
            (CurveParam.circle(1.0), True),
            (CurveParam.ellipse(2.0, 1.0), True),
            (CurveParam.fourier(cos=[1.0, 0.0, 0.1], sin=[0.0, -0.0]), True),
            (CurveParam.fourier(cos=[1.0, 0.0, 0.1], sin=[1e-13]), False)):
        assert sample_curve(curve, 64).mirrored is mirrored
        for shape, moved in ((even, mirrored), (odd, False)):
            samples = perturbed_sample(curve, shape, [0.0, 0.1, -0.1], 64)
            assert [s.mirrored for s in samples] == [mirrored, moved, moved]
            for sample in samples:
                assert not sample.mirrored or mirror_mismatch(sample) < 1e-13
    base = sample_curve(CurveParam.ellipse(2.0, 1.0), 64)
    fields = ("t", "nodes", "normals", "curvature", "speed", "weights")
    assert not CurveSample(*(getattr(base, f) for f in fields)).mirrored


def test_perturbed_circle_with_constant_shift_is_circle():
    [sample] = perturbed_sample(CurveParam.circle(1.0),
                                ShapeFn2D.constant(0.5), [0.2], 64)
    assert np.allclose(np.hypot(sample.nodes[:, 0], sample.nodes[:, 1]),
                       1.1, atol=1e-14)
    assert np.allclose(sample.curvature, -1.0 / 1.1, atol=1e-13)
    assert np.allclose(sample.speed, 1.1, atol=1e-14)


def test_shift_losing_star_shape_is_rejected():
    with pytest.raises(PerturbationError):
        perturbed_sample(CurveParam.ellipse(4.0, 1.0),
                         ShapeFn2D(sin=[0.0, 1.0]), [0.8], 64)
    # radius 1 - h: at h = 1 the circle shrinks to the origin, beyond it the
    # shift folds the circle onto its opposite side. The stacked star checks
    # still refuse the first failing step in order, also when a later step
    # fails a test listed before its own
    for steps, named, contract in (([0.5, 1.5], "h=1.5", "fold"),
                                   ([0.5, 1.2, 1.5], "h=1.2", "fold"),
                                   ([0.5, 1.5, 1.0], "h=1.5", "fold"),
                                   ([0.5, 1.0, 1.5], "h=1,", "origin")):
        with pytest.raises(PerturbationError) as info:
            perturbed_sample(CurveParam.circle(1.0), ShapeFn2D(cos=[-1.0]),
                             steps, 64)
        assert info.value.operation == "perturbed_sample"
        assert contract in info.value.contract
        assert named in info.value.detail


@pytest.mark.parametrize("h", [1e154, 1e160, 1e200])
def test_overflowing_shift_is_refused_by_perturbed_sample(h):
    # at 1e154 the star-check values dtheta/dt overflow (see below); from
    # 1e160 the squared radii overflow, which must not pass the star-shape
    # test on NaN angles. Either way the error names the caller's operation
    a = ShapeFn2D(cos=(1.0,))
    with np.errstate(all="ignore"), pytest.raises(PlasmeigError) as info:
        perturbed_sample(CurveParam.ellipse(2.0, 1.0), a, [0.0, h], 64)
    assert info.value.operation == "perturbed_sample"
    if h >= 1e160:
        assert isinstance(info.value, PerturbationError)
        assert "h=%g" % h in info.value.detail


def test_infinite_star_check_values_are_refused_without_warning():
    # at h = 1e154 the squared radii stay finite, but 90 of the 720
    # star-check values dtheta/dt overflow to +inf: the star check refuses
    # them, naming h, and raises no numpy warning on the way; at 1e153 the
    # shifted curve still samples
    curve, a = CurveParam.ellipse(2.0, 1.0), ShapeFn2D(cos=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PerturbationError) as info:
            perturbed_sample(curve, a, [0.0, 1e154], 64)
        _, shifted = perturbed_sample(curve, a, [0.0, 1e153], 64)
    assert info.value.operation == "perturbed_sample"
    assert "star-shaped" in info.value.contract
    assert "h=1e+154" in info.value.detail
    assert np.all(np.isfinite(shifted.curvature))


def test_infinite_speed_is_not_regular():
    t = np.linspace(0.0, _TWOPI, 8, endpoint=False)
    x = np.stack([np.cos(t), np.sin(t)], axis=-1)
    xp = np.stack([-np.sin(t), np.cos(t)], axis=-1)
    xp[3] = np.inf
    with pytest.raises(GeometryError) as info:
        _geometry_from_derivatives(t, (x, xp, -x), "sample_curve")
    assert "regular" in info.value.contract


def test_large_shift_within_range_still_samples():
    _, shifted = perturbed_sample(CurveParam.ellipse(2.0, 1.0),
                                  ShapeFn2D(cos=(1.0,)), [0.0, 1e140], 64)
    assert np.all(np.isfinite(shifted.curvature))


def test_config_validation():
    with pytest.raises(ConfigError):
        sample_curve(CurveParam.circle(1.0), 63)
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "circle", "radius": 1.0, "extra": 1})
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "ellipse", "a": 2.0})
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "triangle"})
    with pytest.raises(ConfigError):
        CurveParam("triangle")
    with pytest.raises(ConfigError):
        CurveParam.from_config({"kind": "circle"})
    with pytest.raises(ConfigError):
        CurveParam.from_config(["circle", 1.0])
    with pytest.raises(GeometryError):
        CurveParam.ellipse(2.0, 0.0)
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


@pytest.mark.parametrize("scale", [1e-150, 1e110, 1e153])
def test_curvature_scales_exactly_at_extreme_sizes(scale):
    # kappa = -(cross / speed) / speed^2 stays in range where speed^3 would
    # overflow (speeds above 5.6e102) or leave the normal range (below
    # 2.8e-103)
    curve = CurveParam.ellipse(2.0, 1.0)
    base = sample_curve(curve, 128)
    big = sample_curve(curve.scaled(scale), 128)
    assert np.max(np.abs(big.curvature * scale - base.curvature)) \
        <= 1e-14 * np.max(np.abs(base.curvature))


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e-160, 1e-200])
def test_offsets_outside_the_normal_range_are_refused(scale):
    # bem2d's kernels take |x_i - x_j|^2, which overflows, or underflows
    # to a subnormal, at these sizes
    with pytest.raises(GeometryError, match="squared node offsets"):
        sample_curve(CurveParam.ellipse(2.0, 1.0).scaled(scale), 128)


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
