"""Mirror-symmetric samples: the even and odd blocks of S and K* against
the one-block operators they replace."""

import numpy as np
import pytest
import scipy.linalg

from plasmeig import bem2d, cli, spectrum2d
from plasmeig.bem2d import (DtNBlock, build_dtn, compute_g0,
                            farfield_log_coefficient)
from plasmeig.curve2d import (CurveParam, ShapeFn2D, perturbed_sample,
                              sample_curve)
from plasmeig.dtn_shape import fd_operator_check
from plasmeig.errors import ConfigError, NumericalError
from plasmeig.perturb import epsdot_2d
from plasmeig.spectrum2d import (_selection_complete, criticality_residual,
                                 follow_branch, np_route, rayleigh,
                                 solve_plasmonic)
from plasmeig.validate import elliptic_eigenvalues

from test_spectrum2d import (STAR, count_block_steps, count_dense_solves,
                             force_route, one_block)

KITE = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])
MIRRORED = {"ellipse": CurveParam.ellipse(2.0, 1.0),
            "circle": CurveParam.circle(1.0),
            "fourier": CurveParam.fourier(cos=[1.0, 0.0, 0.1, 0.05])}
SIZES = [128, 256]
# a num that keeps solve_plasmonic on the blocks' dense pencils at each size
DENSE_NUM = {128: 10, 256: 30}
COS2 = ShapeFn2D(cos=(0.0, 0.0, 1.0))


def refuse_whole(monkeypatch):
    """Make any assembly of all N rows of S and K* fail."""
    assemble = bem2d._assemble

    def refused(sample, blocks=()):
        if not blocks:
            raise AssertionError("the whole S and K* assembled")
        return assemble(sample, blocks)

    monkeypatch.setattr(bem2d, "_assemble", refused)


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


def assert_read_only(blocks):
    """Every block's pair, S and K* refuse a write."""
    for block in blocks:
        for op in (block.pair, block.single_layer, block.np_adjoint):
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[..., 0, 0] = 1.0


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
        assert sample.mirrored
        blocks = build_dtn(sample).blocks
        assert [len(b.weights) for b in blocks] == [sample.n // 2 + 1,
                                                     sample.n // 2 - 1]
        assert_read_only(blocks)


@pytest.mark.parametrize("n", [4, 64, 182, 1024])
def test_half_row_blocks_are_the_fold_of_the_whole_pair(n):
    # the blocks, assembled on the rows 0 to N/2 in row panels (one panel,
    # a partial last panel, 32-row panels), are bit for bit the columns of
    # each node and its mirror combined in the whole pair's rows
    dtn = build_dtn(sample_curve(MIRRORED["ellipse"], n))
    pair = bem2d._assemble(dtn.sample)
    index = np.arange(n)
    for block, rows, sign in zip(dtn.blocks, (index[:n // 2 + 1],
                                              index[1:n // 2]), (1.0, -1.0)):
        mirror = -rows % n
        once = np.where(rows == mirror, 0.5, 1.0)
        for got, whole in zip((block.single_layer, block.np_adjoint), pair):
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
    assert not sample.mirrored
    [block] = build_dtn(sample).blocks
    assert block.nodes is None
    assert block.single_layer.shape == (128, 128)
    assert_read_only([block])


@pytest.mark.parametrize("curve", [KITE, STAR], ids=["kite", "star"])
def test_asymmetric_apply_is_the_bordered_solve(curve):
    # the one block of an asymmetric sample applies N- and N+ through the
    # LU of [[S, 1], [w^T, 0]], bit for bit, to a block and to one vector
    dtn = build_dtn(sample_curve(curve, 128))
    single, kern = dtn.blocks[0].single_layer, dtn.blocks[0].np_adjoint
    lu = scipy.linalg.lu_factor(np.block([
        [single, np.ones((128, 1))],
        [dtn.sample.weights[None, :], np.zeros((1, 1))]]))
    g = np.random.default_rng(7).standard_normal((128, 5))
    for x in (g, g[:, 2]):
        rhs = np.concatenate([x, np.zeros((1,) + x.shape[1:])])
        phi = scipy.linalg.lu_solve(lu, rhs)[:-1]
        kphi = kern @ phi
        phi *= 0.5
        for got, want in zip(dtn.apply(x), (kphi - phi, kphi + phi)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("curve", sorted(MIRRORED))
def test_block_apply_matches_the_one_block_solve(curve, n):
    # N- and N+ of a mirror-symmetric sample, one solve per block (bordered
    # on the even block, plain S on the odd one), against the bordered solve
    # of the whole pair; the unit circle has capacity 1, where S is singular
    sample = sample_curve(MIRRORED[curve], n)
    g = np.column_stack([np.random.default_rng(n).standard_normal((n, 3)),
                         np.cos(2 * sample.t), np.sin(3 * sample.t)])
    split = build_dtn(sample)
    whole = one_block(sample)
    for x in (g, g[:, 0]):
        for got, want in zip(split.apply(x), whole.apply(x)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_apply_only_jobs_never_form_the_whole_pair(monkeypatch):
    # g0, the far-field coefficient, the operator finite differences and
    # the Rayleigh quotient of mirror-symmetric samples run on the blocks
    refuse_whole(monkeypatch)
    ellipse = MIRRORED["ellipse"]
    dtn = build_dtn(sample_curve(ellipse, 128))
    w, t = dtn.sample.weights, dtn.sample.t
    g0 = compute_g0(dtn)
    f = np.cos(t) + 0.3 * np.sin(2.0 * t)
    assert abs(farfield_log_coefficient(dtn, f - w @ (f * g0))) < 1e-12
    reports = fd_operator_check(ellipse, COS2, 128, [1e-2, 5e-3])
    assert reports["interior"]["slopes"]["central"] >= 1.8
    spec = solve_plasmonic(dtn, 10)
    gap = rayleigh(dtn, spec.eigenfunctions) - spec.eigenvalues
    assert np.max(np.abs(gap)) <= 1e-8


def test_product_does_not_depend_on_what_is_assembled():
    # a mirror-symmetric sample's products go through its half-row blocks
    # and agree with the products of all N rows, to roundoff
    sample = sample_curve(MIRRORED["ellipse"], 128)
    phi = np.random.default_rng(3).standard_normal((128, 4))
    split, whole = build_dtn(sample), one_block(sample)
    for name in ("single_layer", "np_adjoint"):
        want = whole.product(name, phi)
        assert np.max(np.abs(split.product(name, phi) - want)) <= \
            1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("curve", ["kite"] + sorted(MIRRORED))
def test_farfield_log_coefficient_is_the_plain_solve(curve):
    # on the block with the constants alone, against the plain solve of the
    # whole single layer
    dtn = build_dtn(sample_curve(MIRRORED.get(curve, KITE), 128))
    t = dtn.sample.t
    g = 1.0 + np.cos(t) + 0.3 * np.sin(2.0 * t)
    if curve == "circle":   # capacity 1: S is singular
        with pytest.raises(NumericalError, match="logarithmic capacity is 1"):
            farfield_log_coefficient(dtn, g)
        return
    phi = scipy.linalg.solve(bem2d._assemble(dtn.sample)[0], g)
    want = float(dtn.sample.weights @ phi) / (2.0 * np.pi)
    assert abs(farfield_log_coefficient(dtn, g) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("curve", sorted(MIRRORED))
def test_split_spectra_match_the_one_block_solve(curve, n):
    # np_route's dense eig and the dense pencil of solve_plasmonic, per block
    # against the whole sample
    sample = sample_curve(MIRRORED[curve], n)
    num = DENSE_NUM[n]
    for solve in (np_route, solve_plasmonic):
        split = solve(build_dtn(sample), num)
        whole = solve(one_block(sample), num)
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
    # both follow on their pencils, also the one block of 256 rows, where
    # the size rule reads the block step's pairs
    force_route(monkeypatch, False)
    num = DENSE_NUM[n]
    base, shifted = perturbed_sample(MIRRORED[curve], COS2, [0.0, 1e-3], n)
    spec = solve_plasmonic(build_dtn(base), num)
    for i in (0, 3, num - 1):
        args = (spec.eigenvalues[i], spec.densities[:, max(0, i - 2):i + 3],
                spec.densities[:, i], num)
        split = follow_branch(build_dtn(shifted), *args)
        whole = follow_branch(one_block(shifted), *args)
        assert abs(split - whole) <= 1e-13 * max(1.0, abs(whole))


def test_mixed_parity_branch_follows_each_block(monkeypatch):
    # the ellipse's two eigendensities farthest from 1 lie in different
    # blocks; a branch of the first plus a quarter of the second is followed
    # on the first's block alone (63 rows): the quarter's A+ norm is half the
    # overlap found there, so the even block cannot win and its pencil is
    # not formed, and the answer is the whole pencil's; a pure branch is
    # followed on its block alone
    dtn = build_dtn(sample_curve(MIRRORED["ellipse"], 128))
    spec = solve_plasmonic(dtn, 10)
    phi = spec.densities
    parts = [[np.linalg.norm(b.restrict(phi[:, i])) for b in dtn.blocks]
             for i in (0, 1, 2, 9)]
    # the start, phi 0 to 2, lies in one block, phi 9 in the other
    assert all(min(p) == 0.0 for p in parts)
    assert len({int(np.argmax(p)) for p in parts[:3]}) == 1
    assert np.argmax(parts[0]) != np.argmax(parts[3])
    sizes = []
    pencil = DtNBlock.pencil

    def recording(block):
        sizes.append(len(block.weights))
        return pencil(block)

    monkeypatch.setattr(DtNBlock, "pencil", recording)
    for branch in (phi[:, 0], phi[:, 0] + 0.25 * phi[:, 9]):
        eps = follow_branch(dtn, spec.eigenvalues[0], phi[:, :3], branch, 10)
        assert abs(eps - spec.eigenvalues[0]) <= 1e-13
    assert sizes == [63, 63]


def test_block_step_never_forms_the_whole_pair(monkeypatch):
    # a symmetric block-step job assembles the rows 0 to N/2 into its two
    # blocks and runs the block step on each: the whole S and K* are never
    # formed, and the union's selection is the one-block run's and the
    # closed form's
    sample = sample_curve(CurveParam.ellipse(40.0, 1.0), 1024)
    whole = solve_plasmonic(one_block(sample), 40).eigenvalues
    refuse_whole(monkeypatch)
    assembled = record_assembly(monkeypatch)
    steps = count_block_steps(monkeypatch)
    spec = solve_plasmonic(build_dtn(sample), 40)
    assert assembled == [2] and steps == [True]
    assert np.all(np.abs(spec.eigenvalues - whole) <= 1e-13 * whole)
    exact = np.array(elliptic_eigenvalues(40.0, 1.0, 40))
    assert np.all(np.abs(spec.eigenvalues - exact) <= 3e-13 * exact)


def test_follow_without_a_start_density_in_the_branch_block():
    # a branch of one parity followed from start densities of the other
    # alone: the branch's block holds no start column and answers by its
    # dense eigh, as inverse iteration does from a start in that block
    base, shifted = perturbed_sample(MIRRORED["ellipse"], COS2, [0.0, 1e-3],
                                     128)
    spec = solve_plasmonic(build_dtn(base), 10)
    phi = spec.densities   # phi 0 to 4 in the odd block, 5 to 9 the even
    dtn = build_dtn(shifted)
    for i, other, own in ((0, slice(5, 8), slice(0, 3)),
                          (9, slice(2, 5), slice(7, 10))):
        args = (spec.eigenvalues[i], phi[:, other], phi[:, i], 10)
        got = follow_branch(dtn, *args)
        want = follow_branch(dtn, spec.eigenvalues[i], phi[:, own],
                             phi[:, i], 10)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("curve", [KITE, MIRRORED["ellipse"]],
                         ids=["kite", "ellipse"])
def test_zero_branch_is_refused(curve):
    # a block holds a part of branch when that part is nonzero: a zero
    # branch is held by no block, and no overlap can pick its eigenvalue
    dtn = build_dtn(sample_curve(curve, 64))
    spec = solve_plasmonic(dtn, 4)
    with pytest.raises(ConfigError, match="branch must be a nonzero"):
        follow_branch(dtn, spec.eigenvalues[0], spec.densities,
                      np.zeros(64), 4)


@pytest.mark.parametrize("n, num", [(256, 12), (128, 4)])
def test_band_jobs_never_form_the_whole_pair(monkeypatch, n, num):
    # N and num where a rule on the whole sample's N took the block step:
    # each mirror block (129 or 65 rows) is below the two-block floor and
    # solves its own pencil, formed on the rows 0 to N/2; the block step
    # run on the same blocks agrees. Both selections are the one-block
    # solve's and the closed form's
    sample = sample_curve(MIRRORED["ellipse"], n)
    whole = solve_plasmonic(one_block(sample), num).eigenvalues
    assembled = record_assembly(monkeypatch)
    steps = count_block_steps(monkeypatch)
    solves = count_dense_solves(monkeypatch)
    dtn = build_dtn(sample)
    spec = solve_plasmonic(dtn, num)
    assert assembled == [2] and steps == []
    assert solves == ["solve_plasmonic"] * 2
    exact = np.array(elliptic_eigenvalues(2.0, 1.0, num))
    for eps in (spec.eigenvalues, spectrum2d._block_step(dtn, num)[0]):
        assert np.all(np.abs(eps - whole) <= 1e-13 * whole)
        assert np.all(np.abs(eps - exact) <= 1e-13 * exact)


def test_follow_skips_the_blocks_that_cannot_win(monkeypatch):
    # the threefold curve under cos 6t at N = 64: the branch of each of its
    # twofold eigenvalues has parts of both parities, the smaller 3e-6 to
    # 3e-3 of the larger. Its block is not followed, since the A+ norm of
    # that part is below the overlap found in the other block: one pencil
    # per followed eigenvalue where following every block holding a part
    # forms two, and the same eigenvalue, bit for bit
    curve = CurveParam.fourier(cos=[1.0, 0.0, 0.0, 0.1])
    shape = ShapeFn2D(cos=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    base, shifted = perturbed_sample(curve, shape, [0.0, 1e-2], 64)
    dtn, moved = build_dtn(base), build_dtn(shifted)
    spec = solve_plasmonic(dtn, 12)
    sizes = []
    pencil = DtNBlock.pencil

    def recording(block):
        sizes.append(len(block.weights))
        return pencil(block)

    monkeypatch.setattr(DtNBlock, "pencil", recording)
    mixed = 0
    for i in range(12):
        branch = epsdot_2d(dtn, spec, i, shape)[1]
        start = spec.densities[:, max(0, i - 2):i + 3]
        eps = spec.eigenvalues[i]
        sizes.clear()
        got = follow_branch(moved, eps, start, branch, 12)
        assert len(sizes) == 1
        held = [b for b in moved.blocks if b.restrict(branch).any()]
        sizes.clear()
        every = max(spectrum2d._follow_in_block(b, eps, branch, start)
                    for b in held)
        assert len(sizes) == len(held)
        assert got == 1.0 / every[1]
        mixed += len(held) == 2
    assert mixed == 8


@pytest.mark.parametrize("curve", [KITE, STAR], ids=["kite", "star"])
def test_asymmetric_samples_assemble_every_row(monkeypatch, curve):
    # build_dtn assembles the whole pair of an asymmetric sample, on all N
    # rows, and it is the sample's one block
    assembled = record_assembly(monkeypatch)
    dtn = build_dtn(sample_curve(curve, 1024))
    assert len(dtn.blocks) == 1
    assert dtn.blocks[0].single_layer.shape == (1024, 1024)
    assert assembled == [0]


def test_near_symmetric_samples_follow_the_mirror_test(monkeypatch):
    # any nonzero sin t term makes the curve asymmetric, all rows assembled,
    # also one of 1e-13 that moves the nodes by less than roundoff; the
    # spectra agree with the cos-only curve's, split into its two blocks,
    # and each keeps its eps <-> 1/eps partners
    assembled = record_assembly(monkeypatch)
    spectra = []
    for amp, path in ((0.0, [2]), (1e-13, [0]), (1e-9, [0])):
        assembled.clear()
        curve = CurveParam.fourier(cos=[1.0, 0.0, 0.1], sin=[amp])
        spectra.append(solve_plasmonic(build_dtn(sample_curve(curve, 1024)),
                                       40).eigenvalues)
        assert assembled == path
        assert missing_partners(spectra[-1]) == []
    for spectrum in spectra[1:]:
        assert np.all(np.abs(spectra[0] - spectrum) <= 1e-12 * spectrum)


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
    force_route(monkeypatch, False)
    dense = solve_plasmonic(dtn, num).eigenvalues
    force_route(monkeypatch, True)
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
