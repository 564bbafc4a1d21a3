"""Shape derivative of the DtN map and its transplanted finite differences."""

import math

import numpy as np
import pytest
import scipy.linalg

from plasmeig import dtn_shape, validate
from plasmeig.bem2d import build_dtn
from plasmeig.curve2d import (CurveParam, ShapeFn2D, perturbed_sample,
                              sample_curve, tangential_derivative)
from plasmeig.dtn_shape import (band_domain, banded_opnorm,
                                fd_operator_check, loglog_slope,
                                shape_derivative)
from plasmeig.errors import ConfigError

ELLIPSE = CurveParam.ellipse(2.0, 1.0)
A_COS = ShapeFn2D(cos=[0.0, 1.0])


def weighted_symmetry_residual(mat, weights):
    """Relative departure from self-adjointness in <f, g> = sum f g w."""
    wm = weights[:, None] * mat
    return float(np.linalg.norm(wm - wm.T) / np.linalg.norm(wm))


def test_circle_multiplier_oracle():
    # uniform unit shift of a circle of radius R: N-(h) has multipliers
    # l / (R + h) and N+(h) their negatives, so dN-/dh acts as -l / R^2 on
    # each mode and dN+/dh as +l / R^2
    dtn = build_dtn(sample_curve(CurveParam.circle(2.0), 128))
    t = dtn.sample.t
    ls = np.array([1, 2, 3, 5, 8])
    block = np.hstack([np.cos(np.outer(t, ls)), np.sin(np.outer(t, ls))])
    mult = np.concatenate([ls, ls]) / 4.0
    (dminus, dplus), _ = shape_derivative(dtn, ShapeFn2D.constant(1.0),
                                          block)
    assert np.max(np.abs(dminus + mult * block)) < 1e-10
    assert np.max(np.abs(dplus - mult * block)) < 1e-10


def test_matrix_agrees_with_apply():
    # the formula composed as a matrix from the maps applied to the
    # identity, against shape_derivative applied to a block, per side
    dtn = build_dtn(sample_curve(ELLIPSE, 96))
    rng = np.random.default_rng(0)
    block = rng.standard_normal((96, 3))
    sample = dtn.sample
    a_vals = A_COS.value(sample.t)
    tmat = tangential_derivative(sample, np.eye(96))
    got, applied = shape_derivative(dtn, A_COS, block)
    # the maps applied to the block come from the same solve as apply's
    for mine, want in zip(applied, dtn.apply(block)):
        assert np.array_equal(mine, want)
    for nmat, out in zip(dtn.apply(np.eye(96)), got):
        an = a_vals[:, None] * nmat
        mat = (-tmat @ (a_vals[:, None] * tmat)
               + sample.curvature[:, None] * an - nmat @ an)
        assert np.max(np.abs(mat @ block - out)) < 1e-10
    for i, g in enumerate(block.T):
        ng = dtn.apply(g)[0]
        want = (-tangential_derivative(sample, a_vals
                                       * tangential_derivative(sample, g))
                + sample.curvature * a_vals * ng
                - dtn.apply(a_vals * ng)[0])
        assert np.max(np.abs(got[0][:, i] - want)) < 1e-10


def test_zero_shape_gives_zero_derivative():
    dtn = build_dtn(sample_curve(ELLIPSE, 64))
    g = np.cos(dtn.sample.t)
    for out in shape_derivative(dtn, ShapeFn2D(), g[:, None])[0]:
        assert np.max(np.abs(out)) < 1e-12
    reports = fd_operator_check(ELLIPSE, ShapeFn2D(), 64, [1e-2, 5e-3])
    for report in reports.values():
        assert report["slopes"]["one_sided"] is None
        assert report["slopes"]["central"] is None
        assert max(report["max_errors"]) < 1e-12


def transplanted(curve, a, h, n):
    # interior DtN map of the curve shifted by h*a along its normal,
    # assembled on the exact images of the n base nodes, applied to the
    # identity
    [sample] = perturbed_sample(curve, a, [h], n)
    return build_dtn(sample).apply(np.eye(n))[0]


def test_transplanted_operator_at_zero_is_the_base_operator():
    base = build_dtn(sample_curve(ELLIPSE, 96))
    tp = transplanted(ELLIPSE, A_COS, 0.0, 96)
    assert np.max(np.abs(tp - base.apply(np.eye(96))[0])) < 1e-10


def test_transplanted_circle_multipliers():
    # transplanting a uniformly inflated circle: multipliers l / (1 + h)
    h = 0.1
    tp = transplanted(CurveParam.circle(1.0), ShapeFn2D.constant(1.0), h, 128)
    t = sample_curve(CurveParam.circle(1.0), 128).t
    for l in (1, 2, 4, 7):
        g = np.cos(l * t)
        assert np.max(np.abs(tp @ g - (l / (1.0 + h)) * g)) < 1e-10


def test_transplanted_operator_symmetric_only_at_zero():
    w = sample_curve(ELLIPSE, 96).weights
    at_zero = transplanted(ELLIPSE, A_COS, 0.0, 96)
    shifted = transplanted(ELLIPSE, A_COS, 0.05, 96)
    assert weighted_symmetry_residual(at_zero, w) < 1e-12
    assert weighted_symmetry_residual(shifted, w) > 1e-4


def test_finite_differences_converge_to_the_formula():
    reports = fd_operator_check(ELLIPSE, A_COS, 96, [1e-2, 5e-3])
    assert set(reports) == {"interior", "exterior"}
    for side, report in reports.items():
        assert report["slopes"]["one_sided"] >= 0.8
        assert report["slopes"]["central"] >= 1.8
        assert report["side"] == side
        assert len(report["max_errors"]) == 2


def test_fd_report_schema():
    with pytest.raises(ConfigError):
        fd_operator_check(ELLIPSE, A_COS, 64, [1e-2])
    # a repeated step leaves one abscissa, through which no line is fitted
    with pytest.raises(ConfigError, match="distinct"):
        fd_operator_check(ELLIPSE, A_COS, 64, [1e-2, 1e-2])
    report = fd_operator_check(ELLIPSE, A_COS, 64, [1e-2, 5e-3])["interior"]
    assert set(report) == {"curve", "a", "n", "side", "band", "h_list",
                           "one_sided_errors", "central_errors",
                           "max_errors", "fd_floors", "slopes"}
    assert report["curve"] == ELLIPSE.to_config()
    assert report["a"] == A_COS.to_config()
    assert report["band"] == 16
    assert len(report["one_sided_errors"]) == 2
    assert len(report["fd_floors"]) == 2
    assert set(report["slopes"]) == {"one_sided", "central"}


def test_each_shifted_curve_is_assembled_once(monkeypatch):
    # one DtN pair per curve serves both sides: the base curve plus one
    # pair for each of +h and -h, and in the acceptance check one more for
    # the circle oracle
    calls = []

    def counting(sample):
        calls.append(sample.n)
        return build_dtn(sample)

    monkeypatch.setattr(dtn_shape, "build_dtn", counting)
    monkeypatch.setattr(validate, "build_dtn", counting)
    h_list = [1e-2, 5e-3, 2.5e-3]
    reports = fd_operator_check(ELLIPSE, A_COS, 64, h_list)
    assert set(reports) == {"interior", "exterior"}
    assert len(calls) == 1 + 2 * len(h_list)
    calls.clear()
    [result] = validate.run_all(names=["dtn_shape_derivative"])
    assert result.passed
    assert len(calls) == 8


@pytest.mark.parametrize("side", ["interior", "exterior"])
def test_one_side_check_takes_only_its_own_norms(monkeypatch, side):
    # a one-side check (the dn-derivative job) takes the 1 + 2 len(h_list)
    # operator norms of its side only, and reports exactly what the
    # two-sided check reports for that side
    h_list = [1e-2, 5e-3]
    both = fd_operator_check(ELLIPSE, A_COS, 64, h_list)
    calls = []

    def counting(applied, root):
        calls.append(1)
        return banded_opnorm(applied, root)

    monkeypatch.setattr(dtn_shape, "banded_opnorm", counting)
    assert fd_operator_check(ELLIPSE, A_COS, 64, h_list, (side,)) == {
        side: both[side]}
    assert len(calls) == 1 + 2 * len(h_list)


def test_fd_check_solves_only_the_band_basis(monkeypatch):
    # every pair is factored once per mirror block and applied to the band
    # basis (N/2 + 1 columns) only: the base pair to it once, inside
    # shape_derivative, and to the derivative's inner block of twice as
    # many columns, each shifted pair to it once; forming the full maps
    # would solve N columns on each block of the 1 + 2 len(h_list) pairs
    factored, columns = [], []
    getrf, getrs = scipy.linalg.lapack.dgetrf, scipy.linalg.lapack.dgetrs

    def counting_factor(*args, **kwargs):
        factored.append(1)
        return getrf(*args, **kwargs)

    def counting_solve(lu, piv, b, *args, **kwargs):
        columns.append(1 if b.ndim == 1 else b.shape[1])
        return getrs(lu, piv, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counting_factor)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrs", counting_solve)
    fd_operator_check(ELLIPSE, A_COS, 128, [1e-2, 5e-3, 2.5e-3])
    assert len(factored) == 2 * 7
    assert sum(columns) == 2 * (1 + 2 + 6) * 65


def test_circle_derivative_matches_multiplier_rule_in_norm():
    # on a circle of radius R with unit shift, dN/dh = -N / R on both sides
    dtn = build_dtn(sample_curve(CurveParam.circle(2.0), 128))
    root, domain = band_domain(dtn.sample.weights, dtn.sample.t, 32)
    derivs, applied = shape_derivative(dtn, ShapeFn2D.constant(1.0), domain)
    for deriv, applied in zip(derivs, applied):
        assert banded_opnorm(deriv + applied / 2.0, root) < 1e-8


def _growth_slope(dtn, a, l_list=(4, 8, 16, 32)):
    # log-log slope against l of the weighted norm of the derivative applied
    # to cos(l t) and sin(l t)
    t, w = dtn.sample.t, dtn.sample.weights
    norms = [max(math.sqrt(float(np.dot(dg ** 2, w))) for dg in
                 shape_derivative(dtn, a, np.column_stack(
                     [np.cos(l * t), np.sin(l * t)]))[0][0].T)
             for l in l_list]
    return float(np.polyfit(np.log(l_list), np.log(norms), 1)[0])


def test_principal_symbol_order():
    # first-order growth (slope near 1) reflects the cancellation of the
    # second-order pieces; a generic combination of the same terms would
    # grow like l^2
    circle = _growth_slope(
        build_dtn(sample_curve(CurveParam.circle(2.0), 128)),
        ShapeFn2D.constant(1.0))
    assert abs(circle - 1.0) < 1e-6
    ellipse = _growth_slope(build_dtn(sample_curve(ELLIPSE, 128)), A_COS)
    assert 0.8 <= ellipse <= 1.2


def test_opnorm_helpers():
    w = np.full(8, 0.5)
    mat = np.diag([3.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    root = np.sqrt(w)
    full = scipy.linalg.svdvals(mat * (root[:, None] / root[None, :]))[0]
    assert abs(full - 3.0) < 1e-12
    t = 2.0 * np.pi * np.arange(8) / 8
    root, domain = band_domain(w, t, 2)
    assert banded_opnorm(mat @ domain, root) <= full + 1e-12


def test_banded_opnorm_matches_eigvalsh_bit_for_bit():
    # syevr on the lower triangle with eigvalsh's work sizes, as its
    # subset_by_index calls it, on the band of N = 128: random maps, whose
    # bits the upper triangle moves, and the ellipse's N- and N+, whose
    # bits syevr's default work sizes move
    rng = np.random.default_rng(65)
    maps = [(rng.standard_normal((128, 65)), rng.uniform(0.1, 1.0, 128))
            for _ in range(5)]
    dtn = build_dtn(sample_curve(ELLIPSE, 128))
    root, domain = band_domain(dtn.sample.weights, dtn.sample.t, 32)
    maps += [(applied, root) for applied in dtn.apply(domain)]
    for applied, root in maps:
        y = root[:, None] * applied
        top = scipy.linalg.eigvalsh(y.T @ y, subset_by_index=[64, 64])[0]
        assert banded_opnorm(applied, root) == math.sqrt(top)


def test_loglog_slope_drops_steps_at_their_floor():
    h = [4e-2, 2e-2, 1e-2, 5e-3]
    # a second-order series fits exactly; a step at its floor is left out
    assert abs(loglog_slope(h, [x * x for x in h], 0.0) - 2.0) < 1e-12
    errors = [1.6e-3, 4e-4, 1e-4, 3e-13]
    assert abs(loglog_slope(h, errors, [1e-12] * 4) - 2.0) < 1e-12
    # roundoff growing like 1/h, under floors that grow the same way
    roundoff = [3e-14 / x for x in h]
    assert loglog_slope(h, roundoff, [1e-13 / x for x in h]) is None
    assert loglog_slope(h, [1e-3, 1e-16, 1e-16, 1e-16], 1e-13) is None
    # errors above their floors at one repeated step leave no slope either
    assert loglog_slope([1e-2, 1e-2, 5e-3], [1e-4, 1e-4, 1e-16], 1e-13) \
        is None
