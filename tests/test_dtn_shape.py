"""Shape derivative of the DtN map and its transplanted finite differences."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from plasmeig import dtn_shape, validate
from plasmeig.bem2d import DtNBlock, build_dtn
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
    # each mode and dN+/dh as +l / R^2, on cos(l t) in the even block and
    # sin(l t) in the odd one
    dtn = build_dtn(sample_curve(CurveParam.circle(2.0), 128))
    ls = np.array([1, 2, 3, 5, 8])
    mult = ls / 4.0
    for block, family in zip(dtn.blocks, (np.cos, np.sin)):
        y = family(np.outer(dtn.sample.t[block.rows], ls))
        (dminus, dplus), _ = shape_derivative(
            dtn, block, ShapeFn2D.constant(1.0), y)
        assert np.max(np.abs(dminus + mult * y)) < 1e-10
        assert np.max(np.abs(dplus - mult * y)) < 1e-10


def test_matrix_agrees_with_apply():
    # the formula composed as a matrix on node values from the maps applied
    # to the identity, against shape_derivative applied to coordinates on
    # each mirror block, per side: the even shape keeps the blocks
    dtn = build_dtn(sample_curve(ELLIPSE, 96))
    rng = np.random.default_rng(0)
    sample = dtn.sample
    a_vals = A_COS.value(sample.t)
    tmat = tangential_derivative(sample, np.eye(96))
    maps = dtn.apply(np.eye(96))
    for block in dtn.blocks:
        y = rng.standard_normal((len(block.weights), 3))
        x = block.extend(y)
        got, applied = shape_derivative(dtn, block, A_COS, y)
        # the maps applied to the block come from the same solve as apply's
        for mine, want in zip(applied, block.apply(y)):
            assert np.array_equal(mine, want)
        for nmat, out in zip(maps, got):
            an = a_vals[:, None] * nmat
            mat = (-tmat @ (a_vals[:, None] * tmat)
                   + sample.curvature[:, None] * an - nmat @ an)
            assert np.max(np.abs(mat @ x - block.extend(out))) < 1e-10
        for i, g in enumerate(x.T):
            ng = dtn.apply(g)[0]
            want = (-tangential_derivative(
                sample, a_vals * tangential_derivative(sample, g))
                + sample.curvature * a_vals * ng
                - dtn.apply(a_vals * ng)[0])
            assert np.max(np.abs(block.extend(got[0][:, i]) - want)) < 1e-10


def test_zero_shape_gives_zero_derivative():
    dtn = build_dtn(sample_curve(ELLIPSE, 64))
    g = np.cos(dtn.sample.t) + np.sin(2.0 * dtn.sample.t)
    for block in dtn.blocks:
        y = block.restrict(g[:, None])
        assert np.max(np.abs(y)) > 0.5
        for out in shape_derivative(dtn, block, ShapeFn2D(), y)[0]:
            assert np.max(np.abs(out)) < 1e-12
    reports = fd_operator_check(ELLIPSE, ShapeFn2D(), 64, [1e-2, 5e-3])
    for report in reports.values():
        assert report["slopes"]["one_sided"] is None
        assert report["slopes"]["central"] is None
        assert max(report["max_errors"]) < 1e-12


def test_mirror_block_refuses_a_sin_shape():
    # an odd part of a maps each parity into the other, so no mirror block
    # holds the derivative; the one block of an asymmetric sample does
    dtn = build_dtn(sample_curve(ELLIPSE, 64))
    a = ShapeFn2D(cos=[0.0, 1.0], sin=[1e-13])
    for block in dtn.blocks:
        with pytest.raises(ConfigError, match="no sin term"):
            shape_derivative(dtn, block, a, np.ones((len(block.weights), 1)))


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


def count_solves(monkeypatch):
    """Lists that record each LU factorization and the columns of each
    solve from now on."""
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
    return factored, columns


def test_fd_check_solves_only_the_band_basis(monkeypatch):
    # every pair is factored once per mirror block, and each block is
    # applied to its own band family only (the constant and cos(l t), 33
    # columns at N = 128, on the even block, sin(l t), 32, on the odd one,
    # so N/2 + 1 = 65 columns per pair): the base pair to it once, inside
    # shape_derivative, and to the derivative's inner block of twice as
    # many columns, each shifted pair to it once; the whole band on each
    # block would solve twice as many, the full maps N columns per block
    factored, columns = count_solves(monkeypatch)
    fd_operator_check(ELLIPSE, A_COS, 128, [1e-2, 5e-3, 2.5e-3])
    assert len(factored) == 2 * 7
    assert sum(columns) == (1 + 2 + 6) * 65


@pytest.mark.parametrize("curve, a", [
    (ELLIPSE, ShapeFn2D(cos=[0.0, 1.0], sin=[0.0, 0.5])),
    (CurveParam.from_config(validate.KITE), A_COS)])
def test_fd_check_takes_one_block_when_the_mirror_breaks(monkeypatch, curve,
                                                         a):
    # a sin term in the shape, or an asymmetric curve, leaves every sample,
    # the base one too, one block of all N nodes, which carries the whole
    # band: one factorization per pair, 65 columns per apply at N = 128
    factored, columns = count_solves(monkeypatch)
    reports = fd_operator_check(curve, a, 128, [1e-2, 5e-3, 2.5e-3])
    assert len(factored) == 7
    assert sum(columns) == (1 + 2 + 6) * 65
    for report in reports.values():
        assert report["slopes"]["central"] >= 1.8


def test_circle_derivative_matches_multiplier_rule_in_norm():
    # on a circle of radius R with unit shift, dN/dh = -N / R on both sides
    dtn = build_dtn(sample_curve(CurveParam.circle(2.0), 128))
    roots, errors = [], [[], []]
    for block in dtn.blocks:
        root, domain = band_domain(block, dtn.sample.t, 32)
        derivs, applied = shape_derivative(dtn, block,
                                           ShapeFn2D.constant(1.0), domain)
        roots.append(root)
        for side, deriv, n0 in zip(errors, derivs, applied):
            side.append(deriv + n0 / 2.0)
    for side in errors:
        assert banded_opnorm(side, roots) < 1e-8


def _growth_slope(dtn, a, l_list=(4, 8, 16, 32)):
    # log-log slope against l of the weighted norm of the derivative applied
    # to cos(l t) and sin(l t)
    t = dtn.sample.t
    norms = [max(math.sqrt(float(np.dot(dg ** 2, block.weights)))
                 for block in dtn.blocks for dg in shape_derivative(
                     dtn, block, a, block.restrict(np.column_stack(
                         [np.cos(l * t), np.sin(l * t)])))[0][0].T)
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
    # a block of all 8 nodes: the whole band, with both families
    root, domain = band_domain(DtNBlock(w, np.zeros((2, 8, 8))), t, 2)
    assert domain.shape == (8, 5)
    assert banded_opnorm([mat @ domain], [root]) <= full + 1e-12


def test_banded_opnorm_matches_eigvalsh_bit_for_bit():
    # syevr on the lower triangle with eigvalsh's work sizes, as its
    # subset_by_index calls it, on the band of N = 128: random maps, whose
    # bits the upper triangle moves, and the ellipse's N- and N+ on its two
    # band families (33 and 32 columns), whose bits syevr's default work
    # sizes move; a map's norm is the larger of its blocks' norms
    rng = np.random.default_rng(65)
    maps = [[(rng.standard_normal((128, 65)), rng.uniform(0.1, 1.0, 128))]
            for _ in range(5)]
    dtn = build_dtn(sample_curve(ELLIPSE, 128))
    bands = [band_domain(block, dtn.sample.t, 32) for block in dtn.blocks]
    assert [domain.shape for _, domain in bands] == [(65, 33), (63, 32)]
    maps += [[(block.apply(domain)[i], root)
              for block, (root, domain) in zip(dtn.blocks, bands)]
             for i in range(2)]
    for blocks in maps:
        tops = []
        for applied, root in blocks:
            y = root[:, None] * applied
            k = y.shape[1]
            tops.append(math.sqrt(scipy.linalg.eigvalsh(
                y.T @ y, subset_by_index=[k - 1, k - 1])[0]))
            assert banded_opnorm([applied], [root]) == tops[-1]
        assert banded_opnorm(*zip(*blocks)) == max(tops)


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


def whole_basis_check(curve, a, n, h_list):
    """fd_operator_check's errors, floors and flags per side, from a
    reference on node values: the whole band basis (N/2 + 1 columns,
    orthonormalized at once), the maps through DtNPair.apply, the formula
    written out on node values and one weighted SVD per norm."""
    base, *shifted = perturbed_sample(
        curve, a, [0.0] + [s * h for h in h_list for s in (1.0, -1.0)], n)
    dtn = build_dtn(base)
    t, root = base.t, np.sqrt(base.weights)
    l = np.arange(1, n // 4 + 1)
    basis = np.hstack([np.ones((n, 1)), np.cos(np.outer(t, l)),
                       np.sin(np.outer(t, l))])
    domain = np.linalg.qr(root[:, None] * basis)[0] / root[:, None]

    def norm(m):
        return np.linalg.norm(root[:, None] * m, 2)

    a_vals = a.value(t)[:, None]
    local = -tangential_derivative(
        base, a_vals * tangential_derivative(base, domain))
    n0 = dtn.apply(domain)
    derivs = [local + base.curvature[:, None] * a_vals * side
              - dtn.apply(a_vals * side)[i] for i, side in enumerate(n0)]
    maps = [(build_dtn(up).apply(domain), build_dtn(down).apply(domain))
            for up, down in zip(shifted[::2], shifted[1::2])]
    reports = {}
    for i, side in enumerate(dtn_shape.SIDES):
        one_sided = [norm((up[i] - n0[i]) / h - derivs[i])
                     for h, (up, _) in zip(h_list, maps)]
        central = [norm((up[i] - down[i]) / (2.0 * h) - derivs[i])
                   for h, (up, down) in zip(h_list, maps)]
        unit = np.finfo(float).eps * max(1.0, norm(n0[i]))
        floors = [dtn_shape._OPERATOR_FD_FLOOR * unit / h for h in h_list]
        reports[side] = one_sided, central, floors
    return reports


def fd_check_flags(one_sided, central, floors, h_list):
    return dtn_shape.fd_flags(
        {"one_sided": (loglog_slope(h_list, one_sided, floors), one_sided, 1),
         "central": (loglog_slope(h_list, central, floors), central, 2)},
        floors)


@st.composite
def mirrored_jobs(draw):
    """A mirror-symmetric curve and a shape with no sin term: an ellipse of
    aspect 1 to 3, or r = 1 + c_2 cos 2t + c_3 cos 3t with |c_m| <= 0.1,
    and a = a_0 + a_1 cos t + a_2 cos 2t + a_3 cos 3t, |a_m| <= 1 and
    |a_2| >= 1/4, so that the errors lie above their floors."""
    small = st.floats(-0.1, 0.1)
    if draw(st.booleans()):
        curve = CurveParam.ellipse(draw(st.floats(1.0, 3.0)), 1.0)
    else:
        curve = CurveParam.fourier(cos=[1.0, 0.0, draw(small), draw(small)])
    coef = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    coef[2] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.25, 1.0))
    return curve, ShapeFn2D(cos=coef), draw(st.sampled_from([64, 96]))


@given(mirrored_jobs())
def test_block_reports_match_the_whole_basis(job):
    # the maximum over the two families' norms is the whole band's norm:
    # equal flags, equal floors to 1e-8, and every error above its floor
    # agrees to 1e-8 relative plus ten units u max(1, ||N||_band) / h (a
    # thousandth of the floor) of the difference quotient's roundoff: a
    # central error of 5e-6 at N = 64 moved by 1.4e-13, and over 40 random
    # jobs the largest move was 4 units (1.7e-7 relative)
    curve, a, n = job
    h_list = [1e-2, 5e-3, 2.5e-3]
    reports = fd_operator_check(curve, a, n, h_list)
    for side, (one_sided, central, floors) in whole_basis_check(
            curve, a, n, h_list).items():
        report = reports[side]
        assert fd_check_flags(one_sided, central, floors, h_list) \
            == fd_check_flags(report["one_sided_errors"],
                              report["central_errors"], report["fd_floors"],
                              h_list)
        assert np.allclose(report["fd_floors"], floors, rtol=1e-8, atol=0.0)
        assert all(f > floor for f, floor in zip(one_sided, floors))
        for name, want in (("one_sided", one_sided), ("central", central)):
            got = report[name + "_errors"]
            for e, f, floor in zip(got, want, floors):
                if f > floor:
                    assert abs(e - f) <= 1e-8 * f + 1e-3 * floor
