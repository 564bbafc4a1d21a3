"""Mirror-symmetric samples: the even and odd blocks of S and K* against
the one-block operators they replace."""

import numpy as np
import pytest

from plasmeig import bem2d, cli, spectrum2d
from plasmeig.bem2d import DtNBlock, build_dtn
from plasmeig.curve2d import (CurveParam, ShapeFn2D, perturbed_sample,
                              sample_curve)
from plasmeig.spectrum2d import (_selection_complete, criticality_residual,
                                 follow_branch, np_route, solve_plasmonic)
from plasmeig.validate import elliptic_eigenvalues

from test_spectrum2d import STAR, count_block_steps, count_dense_solves

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


def record_assembly(monkeypatch):
    """Record bem2d._assemble calls: the number of blocks each folded its
    rows into (0: the whole pair on all N rows)."""
    calls = []
    assemble = bem2d._assemble

    def recording(sample, blocks=()):
        calls.append(len(blocks))
        return assemble(sample, blocks)

    monkeypatch.setattr(bem2d, "_assemble", recording)
    return calls


def missing_partners(eps, rtol=1e-10):
    """Selected eps < 1 whose partner 1/eps is not among the selection."""
    return [e for e in eps
            if e < 1.0 and not np.any(np.abs(e * eps - 1.0) <= rtol)]


@pytest.mark.parametrize("curve", sorted(MIRRORED))
def test_mirror_symmetric_samples_split(curve):
    # the curves and their cos-only normal shifts, at every step
    samples = perturbed_sample(MIRRORED[curve], ShapeFn2D(cos=(0.1, 0.2, 0.3)),
                               [0.0, 0.05, -0.05], 128)
    for sample in [sample_curve(MIRRORED[curve], 256)] + samples:
        blocks = build_dtn(sample).blocks
        assert [len(b.weights) for b in blocks] == [sample.n // 2 + 1,
                                                     sample.n // 2 - 1]


@pytest.mark.parametrize("n", [4, 64, 182, 1024])
def test_half_row_blocks_are_the_fold_of_the_whole_pair(n):
    # the blocks, assembled on the rows 0 to N/2 in row panels (one panel,
    # a partial last panel, 32-row panels), are bit for bit the columns of
    # each node and its mirror combined in the whole pair's rows
    dtn = build_dtn(sample_curve(MIRRORED["ellipse"], n))
    index = np.arange(n)
    for block, rows, sign in zip(dtn.blocks, (index[:n // 2 + 1],
                                              index[1:n // 2]), (1.0, -1.0)):
        mirror = -rows % n
        once = np.where(rows == mirror, 0.5, 1.0)
        for got, whole in ((block.single_layer, dtn.single_layer),
                           (block.np_adjoint, dtn.np_adjoint)):
            part = whole[rows]
            assert np.array_equal(
                got, (part[:, rows] + sign * part[:, mirror]) * once)


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


def test_block_step_never_forms_the_whole_pair(monkeypatch):
    # a symmetric block-step job assembles the rows 0 to N/2 into its two
    # blocks and runs the block step on each: the whole S and K* are never
    # formed, and the union's selection is the one-block run's and the
    # closed form's
    sample = sample_curve(CurveParam.ellipse(40.0, 1.0), 1024)
    whole = solve_plasmonic(one_block(build_dtn(sample)), 40).eigenvalues

    def refused(dtn):
        raise AssertionError("the whole S or K* on the block-step path")

    for name in ("whole", "single_layer", "np_adjoint"):
        monkeypatch.setattr(bem2d.DtNPair, name, property(refused))
    assembled = record_assembly(monkeypatch)
    steps = count_block_steps(monkeypatch)
    spec = solve_plasmonic(build_dtn(sample), 40)
    assert assembled == [2] and steps == [True]
    assert np.all(np.abs(spec.eigenvalues - whole) <= 1e-13 * whole)
    exact = np.array(elliptic_eigenvalues(40.0, 1.0, 40))
    assert np.all(np.abs(spec.eigenvalues - exact) <= 3e-13 * exact)


@pytest.mark.parametrize("curve", [KITE, STAR], ids=["kite", "star"])
def test_asymmetric_samples_assemble_every_row(monkeypatch, curve):
    # build_dtn assembles the whole pair of an asymmetric sample, on all N
    # rows, and it is the sample's one block
    assembled = record_assembly(monkeypatch)
    dtn = build_dtn(sample_curve(curve, 1024))
    assert not dtn.mirrored and "whole" in vars(dtn)
    assert dtn.blocks == [dtn.whole]
    assert dtn.single_layer.shape == (1024, 1024) and assembled == [0]


def test_near_symmetric_samples_follow_the_mirror_test(monkeypatch):
    # a sin t term inside _MIRROR_TOL takes the half-row path, one outside
    # it all rows; their spectra agree, and each keeps its eps <-> 1/eps
    # partners
    assembled = record_assembly(monkeypatch)
    spectra = []
    for amp, path in ((1e-13, [2]), (1e-9, [0])):
        assembled.clear()
        curve = CurveParam.fourier(cos=[1.0, 0.0, 0.1], sin=[amp])
        spectra.append(solve_plasmonic(build_dtn(sample_curve(curve, 1024)),
                                       40).eigenvalues)
        assert assembled == path
        assert missing_partners(spectra[-1]) == []
    assert np.all(np.abs(spectra[0] - spectra[1]) <= 1e-12 * spectra[1])


@pytest.mark.parametrize("num, margin, accepted", [
    (20, 1, [[11, 19], [11, 19]]), (23, 3, [[15, 23], [15]])])
def test_union_guard_resumes_only_the_short_blocks(monkeypatch, num, margin,
                                                   accepted):
    # ellipse(20, 1) at N = 1024: each block's run starts at k =
    # ceil(num / 2) + margin and is resumed for one block of 8 exactly when
    # its smallest kept |lam| could still reach the union's selection
    # (both at num 20 with a margin of 1, the even block alone at num 23
    # with 3); the flux carrier, K*'s eigenvalue 1/2, is in the even block
    dtn = build_dtn(sample_curve(CurveParam.ellipse(20.0, 1.0), 1024))
    monkeypatch.setattr(spectrum2d, "_ARNOLDI_N_PER_PAIR", 10 ** 6)
    dense = solve_plasmonic(dtn, num).eigenvalues
    monkeypatch.setattr(spectrum2d, "_ARNOLDI_N_PER_PAIR", 8)
    monkeypatch.setattr(spectrum2d, "_ARNOLDI_MARGIN", margin)
    runs, rounds = [], []
    run, pairs = spectrum2d._block_krylov, spectrum2d._k_star_pairs

    def recorded_run(k_star, k, tol):
        kept = []
        runs.append(kept)
        for lam, vectors in run(k_star, k, tol):
            kept.append(lam)
            yield lam, vectors

    def recorded_pairs(sample, lam, phi, num, operation):
        eps, selected = pairs(sample, lam, phi, num, operation)
        rounds.append((phi, eps))
        return eps, selected

    monkeypatch.setattr(spectrum2d, "_block_krylov", recorded_run)
    monkeypatch.setattr(spectrum2d, "_k_star_pairs", recorded_pairs)
    solves = count_dense_solves(monkeypatch)
    spec = solve_plasmonic(dtn, num)
    assert solves == []
    assert [[len(lam) for lam in run] for run in runs] == accepted
    assert [len(run) > 1 for run in runs] == [
        not _selection_complete(run[0], rounds[0][1]) for run in runs]
    assert all(_selection_complete(run[-1], rounds[-1][1]) for run in runs)
    phi, w = rounds[-1][0][:1024], dtn.sample.weights
    flux = np.abs(w @ phi) / (np.linalg.norm(w) * np.linalg.norm(phi, axis=0))
    [carrier] = np.flatnonzero(flux > spectrum2d._FLUX_COS)
    assert carrier < len(runs[0][-1])
    assert np.all(np.abs(spec.eigenvalues - dense) <= 1e-13 * np.abs(dense))


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
