"""Layer-potential assembly and the Dirichlet-to-Neumann pair."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from plasmeig import bem2d
from plasmeig.bem2d import (DtNBlock, _log_quadrature_weights, build_dtn,
                            compute_g0, farfield_log_coefficient)
from plasmeig.curve2d import CurveParam, sample_curve
from plasmeig.errors import GeometryError, NumericalError

from oracle2d import ellipse_np_eigenvalues

KITE = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])


def weighted_symmetry_residual(mat, weights):
    """Relative departure from self-adjointness in <f, g> = sum f g w."""
    wm = weights[:, None] * mat
    return float(np.linalg.norm(wm - wm.T) / np.linalg.norm(wm))


@pytest.mark.parametrize("n", [4, 6, 64, 128, 1024])
def test_log_weights_match_the_cosine_sum(n):
    # the FFT weights against the direct sum they evaluate,
    # -(2pi/n) (sum_{m < n/2} cos(m tau) / m + cos(n tau / 2) / n)
    tau = 2.0 * math.pi * np.arange(n) / n
    m = np.arange(1, n // 2)
    direct = -(2.0 * math.pi / n) * (
        np.cos(np.outer(tau, m)) @ (1.0 / m) + np.cos((n // 2) * tau) / n)
    got = _log_quadrature_weights(n)
    assert np.max(np.abs(got - direct)) <= 1e-14 * np.max(np.abs(direct))


def whole_matrix_operators(sample):
    """S and K* from whole-matrix node offsets, with build_dtn's operations
    in build_dtn's order."""
    n = sample.n
    x, normals = sample.nodes, sample.normals
    dx = np.subtract.outer(x[:, 0], x[:, 0])
    dy = np.subtract.outer(x[:, 1], x[:, 1])
    kern = dy * normals[:, 1, None]
    r2 = dx * dx + dy * dy
    kern += dx * normals[:, 0, None]
    np.fill_diagonal(r2, sample.speed ** 2)
    single = np.log(r2)
    kern /= r2
    single *= 0.5 / n
    w = _log_quadrature_weights(n)
    w[1:] -= (2.0 * math.pi / n) * np.log(
        2.0 * np.sin(math.pi * np.arange(1, n) / n))
    c = w / (2.0 * math.pi)
    single += c[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    single *= sample.speed
    np.fill_diagonal(kern, -0.5 * sample.curvature)
    kern *= sample.speed
    kern /= n
    return single, kern


@pytest.mark.parametrize("n, blocks", [
    (64, "one"), (180, "one"), (1024, "whole"), (2048, "whole"),
    (182, "partial"), (1000, "partial")])
@pytest.mark.parametrize("curve", [KITE, CurveParam.ellipse(2.0, 1.0)],
                         ids=["kite", "ellipse"])
def test_row_blocks_match_the_whole_matrix_bit_for_bit(n, blocks, curve):
    rows = max(1, bem2d._BLOCK_ENTRIES // n)
    assert blocks == ("one" if rows >= n else
                      "whole" if n % rows == 0 else "partial")
    sample = sample_curve(curve, n)
    pair = bem2d._assemble(sample)
    single, kern = whole_matrix_operators(sample)
    assert np.array_equal(pair[0], single)
    assert np.array_equal(pair[1], kern)


@pytest.mark.parametrize("n", [64, 180, 1024])
def test_single_layer_and_np_adjoint_share_one_allocation(n):
    # S and K* are the halves of one C-contiguous (2, N, N) block, so that a
    # loop of jobs at N = 1024 gets one 16 MB block back from the allocator
    # instead of faulting in two fresh 8 MB ones
    [block] = build_dtn(sample_curve(KITE, n)).blocks
    single, kern = block.single_layer, block.np_adjoint
    assert single.base is kern.base
    assert single.base.shape == (2, n, n)
    assert single.base.flags.c_contiguous
    start = single.__array_interface__["data"][0]
    assert single.base.__array_interface__["data"][0] == start
    assert kern.__array_interface__["data"][0] - start == 8 * n * n


def test_assembly_keeps_no_full_size_temporaries():
    # S and K* themselves are 2 x 8 N^2 bytes; the row blocks' offsets and
    # the weights add a few percent
    n = 1024
    sample = sample_curve(KITE, n)
    tracemalloc.start()
    try:
        dtn = build_dtn(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dtn.blocks[0].single_layer.shape == (n, n)
    assert peak <= 2.25 * 8 * n * n


def test_single_layer_circle_multipliers():
    # S cos(lt) = -(R / 2l) cos(lt) on a circle of radius R; constants map
    # to R log R
    sample = sample_curve(CurveParam.circle(2.0), 64)
    sop = bem2d._assemble(sample)[0]
    t = sample.t
    assert np.max(np.abs(sop @ np.ones(64) - 2.0 * math.log(2.0))) < 1e-12
    for l in (1, 2, 5, 13):
        g = np.cos(l * t)
        assert np.max(np.abs(sop @ g + (1.0 / l) * g)) < 1e-12
        g = np.sin(l * t)
        assert np.max(np.abs(sop @ g + (1.0 / l) * g)) < 1e-12


def test_single_layer_is_weighted_symmetric():
    sample = sample_curve(KITE, 128)
    [block] = build_dtn(sample).blocks
    sop = block.single_layer
    assert weighted_symmetry_residual(sop, sample.weights) < 1e-13


def test_unit_capacity_singular_single_layer_still_builds_dtn():
    # capacity 1: the plain single layer is singular, the bordered one is not
    dtn = build_dtn(sample_curve(CurveParam.circle(1.0), 64))
    assert scipy.linalg.svdvals(bem2d._assemble(dtn.sample)[0])[-1] < 1e-6
    for applied in dtn.apply(np.eye(64)):
        assert np.all(np.isfinite(applied))


def test_np_adjoint_circle_action():
    sample = sample_curve(CurveParam.circle(1.0), 64)
    kstar = bem2d._assemble(sample)[1]
    ones = np.ones(64)
    assert np.max(np.abs(kstar @ ones - 0.5 * ones)) < 1e-13
    for l in (1, 2, 4):
        assert np.max(np.abs(kstar @ np.cos(l * sample.t))) < 1e-13


def test_np_adjoint_ellipse_eigenvalues_exact():
    exact = ellipse_np_eigenvalues(2.0, 1.0, kmax=5)
    for n in (64, 128):
        sample = sample_curve(CurveParam.ellipse(2.0, 1.0), n)
        kstar = bem2d._assemble(sample)[1]
        lam = np.sort(scipy.linalg.eigvals(kstar).real)
        got = np.sort(np.concatenate([lam[:5], lam[-6:]]))
        assert np.max(np.abs(got - np.array(exact))) < 1e-12


def test_dtn_reproduces_interior_harmonic():
    # u = x^2 - y^2 is harmonic inside; N- must return its normal derivative
    dtn = build_dtn(sample_curve(KITE, 128))
    x, y = dtn.sample.nodes[:, 0], dtn.sample.nodes[:, 1]
    nx, ny = dtn.sample.normals[:, 0], dtn.sample.normals[:, 1]
    g = x * x - y * y
    assert np.max(np.abs(dtn.apply(g)[0] - 2.0 * (x * nx - y * ny))) < 1e-10


def test_dtn_reproduces_decaying_exterior_harmonic():
    # u = x / |x|^2 is harmonic outside and decays; N+ gives its flux
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 128))
    s = dtn.sample
    x, y = s.nodes[:, 0], s.nodes[:, 1]
    r2 = x * x + y * y
    g = x / r2
    dn = ((y * y - x * x) * s.normals[:, 0]
          - 2.0 * x * y * s.normals[:, 1]) / r2 ** 2
    assert np.max(np.abs(dtn.apply(g)[1] - dn)) < 1e-11


def test_dtn_circle_multipliers_through_rescale():
    # radius 1 has logarithmic capacity 1 (singular plain single layer);
    # multipliers follow the pattern of the plane: l (interior) and -l
    # (exterior)
    for radius in (1.0, 2.0):
        dtn = build_dtn(sample_curve(CurveParam.circle(radius), 64))
        t = dtn.sample.t
        for l in (1, 3, 6):
            g = np.cos(l * t)
            nminus_g, nplus_g = dtn.apply(g)
            assert np.max(np.abs(nminus_g - (l / radius) * g)) < 1e-10
            assert np.max(np.abs(nplus_g + (l / radius) * g)) < 1e-10


def test_dtn_annihilates_constants():
    dtn = build_dtn(sample_curve(KITE, 96))
    for applied in dtn.apply(np.ones(96)):
        assert np.max(np.abs(applied)) < 1e-10


def test_boundary_operator_validation():
    # S and K* of a DtN pair are read-only (N, N) arrays on the nodes of
    # one sample, whose weights are read-only too; N- and N+ are only
    # applied, to one vector or to the columns of a block, and are weighted
    # self-adjoint
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 32))
    for op in bem2d._assemble(dtn.sample):
        assert op.shape == (32, 32)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    assert not dtn.sample.weights.flags.writeable
    g = np.cos(dtn.sample.t)
    nminus, nplus = dtn.apply(np.eye(32))
    for one, col in zip(dtn.apply(g), (nminus @ g, nplus @ g)):
        assert one.shape == (32,)
        assert np.max(np.abs(one - col)) < 1e-12
    assert weighted_symmetry_residual(nminus, dtn.sample.weights) < 1e-12
    assert weighted_symmetry_residual(nplus, dtn.sample.weights) < 1e-12


def test_dtn_maps_are_factored_once_on_first_use(monkeypatch):
    calls = []
    getrf = scipy.linalg.lapack.dgetrf

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return getrf(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counting)
    for curve, sizes in ((KITE, [65]), (CurveParam.ellipse(2.0, 1.0),
                                        [34, 31])):
        # once per block: the bordered system of the block with the
        # constants, plain S on the odd block of a mirror-symmetric sample
        calls.clear()
        dtn = build_dtn(sample_curve(curve, 64))
        assert calls == []
        dtn.apply(np.cos(dtn.sample.t))
        dtn.apply(np.eye(64))
        assert calls == sizes


def random_block(rows, seed):
    """A DtNBlock on random S, K* and weights, and its generator: bordered
    when rows is even (rows - 1 weights and the constants), else plain S."""
    rng = np.random.default_rng(seed)
    m = rows - (rows % 2 == 0)
    return DtNBlock(rng.uniform(0.5, 1.5, m), rng.standard_normal((2, m, m)),
                    sign=1.0 if m < rows else -1.0), rng


def bordered(block):
    """[[S, 1], [w^T, 0]] of block, C-ordered; S alone on a plain block."""
    m = len(block.weights)
    mat = np.zeros((m + block._skip,) * 2)
    mat[:m, :m] = block.single_layer
    mat[:m, m:], mat[m:, :m] = 1.0, block.weights
    return mat


@pytest.mark.parametrize("rows", [66, 63])
@pytest.mark.parametrize("columns", [1, 65, 130])
def test_lapack_calls_match_the_scipy_wrappers_bit_for_bit(rows, columns):
    # getrf/getrs on the Fortran-ordered bordered system and right-hand
    # side against lu_factor/lu_solve on C-ordered copies (one column: a
    # vector)
    block, rng = random_block(rows, rows * columns)
    lu, piv = scipy.linalg.lu_factor(bordered(block))
    assert all(np.array_equal(a, b) for a, b in zip(block._lu, (lu, piv)))
    m = len(block.weights)
    y = rng.standard_normal((m, columns) if columns > 1 else m)
    phi = scipy.linalg.lu_solve((lu, piv), np.concatenate(
        [y, np.zeros((block._skip,) + y.shape[1:])]))[:len(y)]
    kphi = block.np_adjoint @ phi
    for got, want in zip(block.apply(y), (kphi - 0.5 * phi, kphi + 0.5 * phi)):
        assert np.array_equal(got, want)


def test_nearly_singular_bordered_block_is_refused():
    # S of rank m - 2: the border fills one missing direction, not two; the
    # factors exist (no zero pivot), the condition estimate is refused
    block, rng = random_block(66, 0)
    m = len(block.weights)
    u, _, vt = np.linalg.svd(rng.standard_normal((m, m)))
    s = np.r_[np.ones(m - 2), 1e-20, 1e-20]
    block.single_layer = (u * s) @ vt
    with pytest.raises(NumericalError, match="rcond") as info:
        block.apply(np.ones(m))
    assert info.value.contract == "single-layer system must be invertible"


def test_g0_constant_on_circle_and_normalized():
    dtn = build_dtn(sample_curve(CurveParam.circle(2.0), 64))
    g0 = compute_g0(dtn)
    assert abs(float(np.dot(g0, dtn.sample.weights)) - 1.0) < 1e-12
    assert np.max(np.abs(g0 - g0.mean())) < 1e-10


def test_g0_base_point_independence_and_domain_check():
    dtn = build_dtn(sample_curve(KITE, 128))
    g0 = compute_g0(dtn)
    g0_shifted = compute_g0(dtn, y0=(0.2, -0.1))
    assert np.max(np.abs(g0 - g0_shifted)) < 1e-9
    with pytest.raises(GeometryError):
        compute_g0(dtn, y0=(5.0, 5.0))


def test_farfield_log_coefficient_vanishes_on_admissible_data():
    dtn = build_dtn(sample_curve(CurveParam.circle(2.0), 64))
    t = dtn.sample.t
    # on the circle g0 is constant, so mean-zero data is admissible
    assert abs(farfield_log_coefficient(dtn, np.cos(t))) < 1e-12
    assert abs(farfield_log_coefficient(dtn, np.ones(64))) > 1e-3


def test_farfield_log_coefficient_refuses_unit_capacity():
    dtn = build_dtn(sample_curve(CurveParam.circle(1.0), 64))
    with pytest.raises(NumericalError, match="logarithmic capacity is 1"):
        farfield_log_coefficient(dtn, np.cos(dtn.sample.t))
