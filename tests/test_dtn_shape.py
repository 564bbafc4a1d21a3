"""Shape derivative of the DtN map and its transplanted finite differences."""

import math

import numpy as np
import pytest
import scipy.linalg

from plasmeig.bem2d import BoundaryOperator, build_dtn_for_curve
from plasmeig.curve2d import CurveParam, ShapeFn2D, sample_curve
from plasmeig.dtn_shape import (banded_opnorm, fd_operator_check,
                                shape_derivative_apply,
                                shape_derivative_matrix, transplanted_dtn)
from plasmeig.errors import ConfigError

ELLIPSE = CurveParam.ellipse(2.0, 1.0)
A_COS = ShapeFn2D(cos=[0.0, 1.0])


def test_circle_multiplier_oracle():
    # uniform unit shift of a circle of radius R: N(h) has multipliers
    # l / (R + h), so dN/dh acts as -l / R^2 on each mode
    dtn = build_dtn_for_curve(CurveParam.circle(2.0), 128)
    t = dtn.sample.t
    a = ShapeFn2D.constant(1.0)
    for l in (1, 2, 3, 5, 8):
        g = np.cos(l * t)
        out = shape_derivative_apply(g, a, dtn)
        assert np.max(np.abs(out + (l / 4.0) * g)) < 1e-10
        g = np.sin(l * t)
        out = shape_derivative_apply(g, a, dtn)
        assert np.max(np.abs(out + (l / 4.0) * g)) < 1e-10


def test_matrix_agrees_with_apply():
    dtn = build_dtn_for_curve(ELLIPSE, 96)
    mat = shape_derivative_matrix(dtn, A_COS)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(96)
    assert np.max(np.abs(mat @ g - shape_derivative_apply(g, A_COS, dtn))) \
        < 1e-10


def test_zero_shape_gives_zero_derivative():
    dtn = build_dtn_for_curve(ELLIPSE, 64)
    g = np.cos(dtn.sample.t)
    out = shape_derivative_apply(g, ShapeFn2D(), dtn)
    assert np.max(np.abs(out)) < 1e-12
    report = fd_operator_check(ELLIPSE, ShapeFn2D(), 64, [1e-2, 5e-3])
    assert report["slopes"]["one_sided"] is None
    assert report["slopes"]["central"] is None
    assert max(report["max_errors"]) < 1e-12


def test_transplanted_operator_at_zero_is_the_base_operator():
    base = build_dtn_for_curve(ELLIPSE, 96)
    tp = transplanted_dtn(ELLIPSE, A_COS, 0.0, 96)
    assert np.max(np.abs(tp - base.nminus.matrix)) < 1e-10


def test_transplanted_circle_multipliers():
    # transplanting a uniformly inflated circle: multipliers l / (1 + h)
    h = 0.1
    tp = transplanted_dtn(CurveParam.circle(1.0), ShapeFn2D.constant(1.0),
                          h, 128)
    t = sample_curve(CurveParam.circle(1.0), 128).t
    for l in (1, 2, 4, 7):
        g = np.cos(l * t)
        assert np.max(np.abs(tp @ g - (l / (1.0 + h)) * g)) < 1e-10


def test_transplanted_operator_symmetric_only_at_zero():
    w = sample_curve(ELLIPSE, 96).weights
    at_zero = transplanted_dtn(ELLIPSE, A_COS, 0.0, 96)
    shifted = transplanted_dtn(ELLIPSE, A_COS, 0.05, 96)
    assert BoundaryOperator(at_zero, w).symmetry_residual() < 1e-12
    assert BoundaryOperator(shifted, w).symmetry_residual() > 1e-4


def test_finite_differences_converge_to_the_formula():
    for side in ("interior", "exterior"):
        report = fd_operator_check(ELLIPSE, A_COS, 96, [1e-2, 5e-3],
                                   side=side)
        assert report["slopes"]["one_sided"] >= 0.8
        assert report["slopes"]["central"] >= 1.8
        assert report["side"] == side
        assert len(report["max_errors"]) == 2


def test_fd_report_schema():
    with pytest.raises(ConfigError):
        fd_operator_check(ELLIPSE, A_COS, 64, [1e-2])
    report = fd_operator_check(ELLIPSE, A_COS, 64, [1e-2, 5e-3])
    assert set(report) == {"curve", "a", "n", "side", "band", "h_list",
                           "one_sided_errors", "central_errors",
                           "max_errors", "slopes"}
    assert report["curve"] == ELLIPSE.to_config()
    assert report["a"] == A_COS.to_config()
    assert report["band"] == 16
    assert len(report["one_sided_errors"]) == 2
    assert set(report["slopes"]) == {"one_sided", "central"}


def test_circle_derivative_matches_multiplier_rule_in_norm():
    # on a circle of radius R with unit shift, dN/dh = -N / R
    dtn = build_dtn_for_curve(CurveParam.circle(2.0), 128)
    dmat = shape_derivative_matrix(dtn, ShapeFn2D.constant(1.0))
    resid = dmat + dtn.nminus.matrix / 2.0
    t = dtn.sample.t
    assert banded_opnorm(resid, dtn.weights, t, 32) < 1e-8


def _growth_slope(dtn, a, l_list=(4, 8, 16, 32)):
    # log-log slope against l of the weighted norm of the derivative applied
    # to cos(l t) and sin(l t)
    dmat = shape_derivative_matrix(dtn, a)
    t, w = dtn.sample.t, dtn.sample.weights
    norms = [max(math.sqrt(float(np.dot((dmat @ g) ** 2, w)))
                 for g in (np.cos(l * t), np.sin(l * t))) for l in l_list]
    return float(np.polyfit(np.log(l_list), np.log(norms), 1)[0])


def test_principal_symbol_order():
    # first-order growth (slope near 1) reflects the cancellation of the
    # second-order pieces; a generic combination of the same terms would
    # grow like l^2
    circle = _growth_slope(build_dtn_for_curve(CurveParam.circle(2.0), 128),
                           ShapeFn2D.constant(1.0))
    assert abs(circle - 1.0) < 1e-6
    ellipse = _growth_slope(build_dtn_for_curve(ELLIPSE, 128), A_COS)
    assert 0.8 <= ellipse <= 1.2


def test_opnorm_helpers():
    w = np.full(8, 0.5)
    mat = np.diag([3.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    root = np.sqrt(w)
    full = scipy.linalg.svdvals(mat * (root[:, None] / root[None, :]))[0]
    assert abs(full - 3.0) < 1e-12
    t = 2.0 * np.pi * np.arange(8) / 8
    assert banded_opnorm(mat, w, t, 2) <= full + 1e-12


def test_side_validation():
    dtn = build_dtn_for_curve(ELLIPSE, 64)
    with pytest.raises(ConfigError):
        shape_derivative_apply(np.ones(64), A_COS, dtn, side="both")
    with pytest.raises(ConfigError):
        transplanted_dtn(ELLIPSE, A_COS, 0.0, 64, side="both")
