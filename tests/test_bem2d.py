"""Layer-potential assembly and the Dirichlet-to-Neumann pair."""

import math

import numpy as np
import pytest
import scipy.linalg

from plasmeig.bem2d import (BoundaryOperator, assemble_np_adjoint,
                            assemble_single_layer, build_dtn,
                            build_dtn_for_curve, compute_g0,
                            farfield_log_coefficient)
from plasmeig.curve2d import CurveParam, sample_curve
from plasmeig.errors import GeometryError, NumericalError

from oracle2d import ellipse_np_eigenvalues

KITE = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])


def test_single_layer_circle_multipliers():
    # S cos(lt) = -(R / 2l) cos(lt) on a circle of radius R; constants map
    # to R log R
    sample = sample_curve(CurveParam.circle(2.0), 64)
    sop = assemble_single_layer(sample)
    t = sample.t
    assert np.max(np.abs(sop.apply(np.ones(64)) - 2.0 * math.log(2.0))) < 1e-12
    for l in (1, 2, 5, 13):
        g = np.cos(l * t)
        assert np.max(np.abs(sop.apply(g) + (1.0 / l) * g)) < 1e-12
        g = np.sin(l * t)
        assert np.max(np.abs(sop.apply(g) + (1.0 / l) * g)) < 1e-12


def test_single_layer_is_weighted_symmetric():
    sop = assemble_single_layer(sample_curve(KITE, 128))
    assert sop.symmetry_residual() < 1e-13


def test_unit_capacity_singular_single_layer_still_builds_dtn():
    # capacity 1: the plain single layer is singular, the bordered one is not
    sample = sample_curve(CurveParam.circle(1.0), 64)
    sop = assemble_single_layer(sample)
    assert scipy.linalg.svdvals(sop.matrix)[-1] < 1e-6
    dtn = build_dtn(sample)
    assert np.all(np.isfinite(dtn.nminus.matrix))
    assert np.all(np.isfinite(dtn.nplus.matrix))


def test_np_adjoint_circle_action():
    sample = sample_curve(CurveParam.circle(1.0), 64)
    kstar = assemble_np_adjoint(sample)
    ones = np.ones(64)
    assert np.max(np.abs(kstar.apply(ones) - 0.5 * ones)) < 1e-13
    for l in (1, 2, 4):
        assert np.max(np.abs(kstar.apply(np.cos(l * sample.t)))) < 1e-13


def test_np_adjoint_ellipse_eigenvalues_exact():
    exact = ellipse_np_eigenvalues(2.0, 1.0, kmax=5)
    for n in (64, 128):
        sample = sample_curve(CurveParam.ellipse(2.0, 1.0), n)
        lam = np.sort(scipy.linalg.eigvals(
            assemble_np_adjoint(sample).matrix).real)
        got = np.sort(np.concatenate([lam[:5], lam[-6:]]))
        assert np.max(np.abs(got - np.array(exact))) < 1e-12


def test_dtn_reproduces_interior_harmonic():
    # u = x^2 - y^2 is harmonic inside; N- must return its normal derivative
    dtn = build_dtn_for_curve(KITE, 128)
    x, y = dtn.sample.nodes[:, 0], dtn.sample.nodes[:, 1]
    nx, ny = dtn.sample.normals[:, 0], dtn.sample.normals[:, 1]
    g = x * x - y * y
    assert np.max(np.abs(dtn.nminus.apply(g) - 2.0 * (x * nx - y * ny))) < 1e-10


def test_dtn_reproduces_decaying_exterior_harmonic():
    # u = x / |x|^2 is harmonic outside and decays; N+ gives its flux
    dtn = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 128)
    s = dtn.sample
    x, y = s.nodes[:, 0], s.nodes[:, 1]
    r2 = x * x + y * y
    g = x / r2
    dn = ((y * y - x * x) * s.normals[:, 0]
          - 2.0 * x * y * s.normals[:, 1]) / r2 ** 2
    assert np.max(np.abs(dtn.nplus.apply(g) - dn)) < 1e-11


def test_dtn_circle_multipliers_through_rescale():
    # radius 1 has logarithmic capacity 1 (singular plain single layer);
    # multipliers follow the pattern of the plane: l (interior) and -l
    # (exterior)
    for radius in (1.0, 2.0):
        dtn = build_dtn_for_curve(CurveParam.circle(radius), 64)
        t = dtn.sample.t
        for l in (1, 3, 6):
            g = np.cos(l * t)
            assert np.max(np.abs(dtn.nminus.apply(g) - (l / radius) * g)) < 1e-10
            assert np.max(np.abs(dtn.nplus.apply(g) + (l / radius) * g)) < 1e-10


def test_dtn_annihilates_constants():
    dtn = build_dtn_for_curve(KITE, 96)
    ones = np.ones(96)
    assert np.max(np.abs(dtn.nminus.apply(ones))) < 1e-10
    assert np.max(np.abs(dtn.nplus.apply(ones))) < 1e-10


def test_boundary_operator_validation():
    with pytest.raises(NumericalError):
        BoundaryOperator(np.zeros((3, 4)), np.ones(3))
    op = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 32).nminus
    assert not op.matrix.flags.writeable
    assert not op.weights.flags.writeable


def test_g0_constant_on_circle_and_normalized():
    dtn = build_dtn_for_curve(CurveParam.circle(2.0), 64)
    g0 = compute_g0(dtn)
    assert abs(float(np.dot(g0, dtn.sample.weights)) - 1.0) < 1e-12
    assert np.max(np.abs(g0 - g0.mean())) < 1e-10


def test_g0_base_point_independence_and_domain_check():
    dtn = build_dtn_for_curve(KITE, 128)
    g0 = compute_g0(dtn)
    g0_shifted = compute_g0(dtn, y0=(0.2, -0.1))
    assert np.max(np.abs(g0 - g0_shifted)) < 1e-9
    with pytest.raises(GeometryError):
        compute_g0(dtn, y0=(5.0, 5.0))


def test_farfield_log_coefficient_vanishes_on_admissible_data():
    dtn = build_dtn_for_curve(CurveParam.circle(2.0), 64)
    t = dtn.sample.t
    # on the circle g0 is constant, so mean-zero data is admissible
    assert abs(farfield_log_coefficient(dtn, np.cos(t))) < 1e-12
    assert abs(farfield_log_coefficient(dtn, np.ones(64))) > 1e-3


def test_farfield_log_coefficient_refuses_unit_capacity():
    dtn = build_dtn_for_curve(CurveParam.circle(1.0), 64)
    with pytest.raises(NumericalError, match="logarithmic capacity is 1"):
        farfield_log_coefficient(dtn, np.cos(dtn.sample.t))
