"""Mirror-symmetric samples: the even and odd blocks of S and K* against
the one-block operators they replace."""

import numpy as np
import pytest

from plasmeig import bem2d, cli, spectrum2d
from plasmeig.bem2d import DtNBlock, build_dtn
from plasmeig.curve2d import (CurveParam, ShapeFn2D, perturbed_sample,
                              sample_curve)
from plasmeig.spectrum2d import (criticality_residual, follow_branch,
                                 np_route, solve_plasmonic)

KITE = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])
MIRRORED = {"ellipse": CurveParam.ellipse(2.0, 1.0),
            "circle": CurveParam.circle(1.0),
            "fourier": CurveParam.fourier(cos=[1.0, 0.0, 0.1, 0.05])}
SIZES = [128, 256]
# a num that keeps solve_plasmonic on the dense pencil at each size
DENSE_NUM = {128: 10, 256: 30}
COS2 = ShapeFn2D(cos=(0.0, 0.0, 1.0))


def one_block(dtn):
    """dtn with its blocks replaced by the whole pair: every solve runs on
    the one block, as on an asymmetric sample."""
    dtn.blocks = [dtn.whole]
    return dtn


def close_eigenvalues(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("curve", sorted(MIRRORED))
def test_mirror_symmetric_samples_split(curve):
    # the curves and their cos-only normal shifts, at every step
    samples = perturbed_sample(MIRRORED[curve], ShapeFn2D(cos=(0.1, 0.2, 0.3)),
                               [0.0, 0.05, -0.05], 128)
    for sample in [sample_curve(MIRRORED[curve], 256)] + samples:
        blocks = build_dtn(sample).blocks
        assert [len(b.weights) for b in blocks] == [sample.n // 2 + 1,
                                                     sample.n // 2 - 1]


@pytest.mark.parametrize("sample", [
    sample_curve(KITE, 128),
    perturbed_sample(CurveParam.ellipse(2.0, 1.0), ShapeFn2D(sin=(0.1,)),
                     [0.05], 128)[0],
    sample_curve(CurveParam.fourier(cos=[1.0, 0.0, 0.1], sin=[1e-6]), 128)],
    ids=["kite", "sin-shifted-ellipse", "fourier-sin-1e-6"])
def test_asymmetric_samples_stay_one_block(sample):
    dtn = build_dtn(sample)
    [whole] = dtn.blocks
    assert whole is dtn.whole
    assert whole.nodes is None and whole.single_layer is dtn.single_layer


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("curve", sorted(MIRRORED))
def test_split_spectra_match_the_one_block_solve(curve, n):
    # np_route's dense eig and the dense pencil of solve_plasmonic, per block
    # against the whole sample
    sample = sample_curve(MIRRORED[curve], n)
    num = DENSE_NUM[n]
    for solve in (np_route, solve_plasmonic):
        split = solve(build_dtn(sample), num)
        whole = solve(one_block(build_dtn(sample)), num)
        assert close_eigenvalues(split.eigenvalues, whole.eigenvalues) \
            <= 1e-13
        assert np.max(split.residuals) <= 1e-8


@pytest.mark.parametrize("solves", [spectrum2d._FOLLOW_SOLVES, 0],
                         ids=["inverse-iteration", "dense-fallback"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("curve", sorted(MIRRORED))
def test_followed_branch_matches_the_one_block_solve(monkeypatch, curve, n,
                                                     solves):
    monkeypatch.setattr(spectrum2d, "_FOLLOW_SOLVES", solves)
    num = DENSE_NUM[n]
    base, shifted = perturbed_sample(MIRRORED[curve], COS2, [0.0, 1e-3], n)
    spec = solve_plasmonic(build_dtn(base), num)
    for i in (0, 3, num - 1):
        args = (spec.eigenvalues[i], spec.densities[:, max(0, i - 2):i + 3],
                spec.densities[:, i], num)
        split = follow_branch(build_dtn(shifted), *args)
        whole = follow_branch(one_block(build_dtn(shifted)), *args)
        assert abs(split - whole) <= 1e-13 * max(1.0, abs(whole))


def test_mixed_parity_branch_takes_the_one_block_path(monkeypatch):
    # the ellipse's two eigendensities farthest from 1 lie in different
    # blocks; a branch of their sum belongs to neither, and is followed on
    # the whole pencil (N - 1 rows), a pure one on its block
    dtn = build_dtn(sample_curve(MIRRORED["ellipse"], 128))
    spec = solve_plasmonic(dtn, 10)
    phi = spec.densities
    parts = [[np.linalg.norm(b.restrict(phi[:, i])) for b in dtn.blocks]
             for i in (0, 9)]
    assert min(parts[0]) == 0.0 and min(parts[1]) == 0.0
    assert np.argmax(parts[0]) != np.argmax(parts[1])
    sizes = []
    pencil = DtNBlock.pencil

    def recording(block):
        sizes.append(len(block.weights))
        return pencil(block)

    monkeypatch.setattr(DtNBlock, "pencil", recording)
    for branch in (phi[:, 0], phi[:, 0] + phi[:, 9]):
        eps = follow_branch(dtn, spec.eigenvalues[0], phi[:, :3], branch, 10)
        assert abs(eps - spec.eigenvalues[0]) <= 1e-13
    assert sizes == [63, 128]


def test_block_step_never_forms_the_blocks(monkeypatch):
    # a symmetric block-step job runs no detection and forms no block: its
    # eigenvalues are the block step's own, bit for bit
    def refused(dtn):
        raise AssertionError("a symmetry block on the block-step path")

    for name in ("blocks", "whole"):
        monkeypatch.setattr(bem2d.DtNPair, name, property(refused))
    dtn = build_dtn(sample_curve(CurveParam.ellipse(40.0, 1.0), 1024))
    spec = solve_plasmonic(dtn, 40)
    eps, _ = spectrum2d._block_krylov(dtn.sample, dtn.np_adjoint, 40)
    assert np.array_equal(spec.eigenvalues, eps)


def test_criticality_of_a_block_is_its_columns():
    # one apply for the block; column i probed from seed + i, as a call of
    # its own would be
    dtn = build_dtn(sample_curve(KITE, 96))
    t, w = dtn.sample.t, dtn.sample.weights
    g = np.column_stack([np.cos(l * t) + 0.3 * np.sin((l + 1) * t)
                         for l in (1, 2, 3)])
    g -= (w @ g) / w.sum()
    block = criticality_residual(dtn, g, seed=5)
    single = [criticality_residual(dtn, g[:, i], seed=5 + i)
              for i in range(3)]
    assert block.shape == (3,) and min(single) > 1e-3
    assert np.allclose(block, single, rtol=1e-9, atol=0.0)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
