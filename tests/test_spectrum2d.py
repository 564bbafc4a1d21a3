"""Plasmonic spectrum solves: selection, invariances and diagnostics."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from plasmeig import bem2d, spectrum2d
from plasmeig.bem2d import DtNBlock, build_dtn
from plasmeig.cli import canonical_json
from plasmeig.curve2d import CurveParam, sample_curve
from plasmeig.errors import (ConfigError, EInfinitySignal, NumericalError,
                             PlasmeigError)
from plasmeig.spectrum2d import (_pencil_eigh, _selection_complete,
                                 criticality_residual, follow_branch,
                                 np_route, rayleigh, select_far_from_one,
                                 solve_plasmonic)
from plasmeig.validate import elliptic_eigenvalues

from oracle2d import ellipse_plasmonic_eigenvalues

KITE = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])


def bordered_residuals(dtn, eps, g):
    """Reference residuals: weighted norms of (eps N- + N+) g, one per
    column of g, with N- and N+ applied through the bordered LU."""
    nminus_g, nplus_g = dtn.apply(g)
    r = nminus_g * eps + nplus_g
    return np.sqrt(dtn.sample.weights @ (r * r))


def one_block(sample):
    """The DtNPair of sample built as if it were asymmetric (its mirrored
    flag cleared on a copy): one block of all N rows, on which every solve
    runs."""
    sample = copy.copy(sample)
    sample.mirrored = False
    return build_dtn(sample)


def count_block_steps(monkeypatch):
    """Record the block Arnoldi steps (_block_step) on K*: one entry per
    call, True when the step returned a selection."""
    calls = []
    step = spectrum2d._block_step

    def counted(dtn, num):
        pairs = step(dtn, num)
        calls.append(pairs is not None)
        return pairs

    monkeypatch.setattr(spectrum2d, "_block_step", counted)
    return calls


class PassCounter(np.ndarray):
    """A view of K* that adds to rows[0] the rows that it, or a row panel
    sliced from it, gives to a product (np.matmul or @)."""

    def __array_finalize__(self, obj):
        self.rows = getattr(obj, "rows", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is self:
            self.rows[0] += len(self)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


def block_step_passes(monkeypatch, dtn, num):
    """_block_step on dtn for num values and the passes of each of its runs
    over its block's K*: one per row of the block's K* read, however many
    row panels a pass is split into."""
    counters = []
    run = spectrum2d._block_krylov

    def counted(k_star, k, tol):
        counters.append(k_star.view(PassCounter))
        counters[-1].rows = [0]
        return run(counters[-1], k, tol)

    monkeypatch.setattr(spectrum2d, "_block_krylov", counted)
    pairs = spectrum2d._block_step(dtn, num)
    passes = [divmod(c.rows[0], len(c)) for c in counters]
    assert all(rest == 0 for _, rest in passes)
    return pairs, [count for count, _ in passes]


def test_ellipse_matches_separation_of_variables():
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 96))
    spec = solve_plasmonic(dtn, num=10)
    exact = ellipse_plasmonic_eigenvalues(2.0, 1.0, num=10)
    assert np.max(np.abs(spec.eigenvalues - np.array(exact))) < 1e-10


def test_unit_capacity_ellipse_matches_separation_of_variables():
    # a + b = 2: logarithmic capacity 1, so the plain single layer is singular
    dtn = build_dtn(sample_curve(CurveParam.ellipse(1.2, 0.8), 256))
    spec = solve_plasmonic(dtn, num=10)
    exact = ellipse_plasmonic_eigenvalues(1.2, 0.8, num=10)
    assert np.max(np.abs(spec.eigenvalues - np.array(exact))) < 1e-10


def test_eigenvalues_are_scale_invariant():
    # the pencil on densities is scale-covariant (P removes the s log s
    # rank-one part of the scaled S), so it also takes scales at which the
    # bordered single-layer system is too ill-conditioned to factor; the
    # np route normalizes on densities too, and its flux test is a cosine,
    # so it holds at any scale as well
    for solver in (solve_plasmonic, np_route):
        base = solver(build_dtn(sample_curve(KITE, 96)), num=12).eigenvalues
        for factor in (2.0, 0.5, 1e-7, 1e8, 1e-9):
            scaled = solver(
                build_dtn(sample_curve(KITE.scaled(factor), 96)),
                num=12).eigenvalues
            assert np.max(np.abs(scaled - base)) < 1e-8


def test_eigenvalues_stable_under_grid_doubling():
    coarse = solve_plasmonic(build_dtn(sample_curve(KITE, 96)),
                             num=12).eigenvalues
    fine = solve_plasmonic(build_dtn(sample_curve(KITE, 192)),
                           num=12).eigenvalues
    assert np.max(np.abs(coarse - fine)) < 1e-9


def test_selection_keeps_values_farthest_from_one():
    dtn = build_dtn(sample_curve(KITE, 64))
    few = solve_plasmonic(dtn, num=8).eigenvalues
    everything = solve_plasmonic(dtn, num=63).eigenvalues
    assert np.all(np.diff(few) >= 0.0)
    farthest = np.sort(everything[np.argsort(-np.abs(everything - 1.0))[:8]])
    assert np.max(np.abs(few - farthest)) < 1e-12


def test_spectrum_is_symmetric_under_inversion():
    # eigenvalues come in reciprocal pairs (eps, 1/eps) on any smooth curve
    eps = solve_plasmonic(build_dtn(sample_curve(KITE, 128)),
                          num=16).eigenvalues
    for i in np.argsort(-np.abs(eps - 1.0))[:6]:
        assert np.min(np.abs(eps * eps[i] - 1.0)) < 1e-10


def test_eigenpairs_are_normalized_with_small_residuals():
    dtn = build_dtn(sample_curve(KITE, 128))
    w = dtn.sample.weights
    for solver in (solve_plasmonic, np_route):
        spec = solver(dtn, num=10)
        assert np.max(spec.residuals) < 1e-10
        for i, eps in enumerate(spec.eigenvalues):
            g = spec.eigenfunctions[:, i]
            energy = float(g @ (w * dtn.apply(g)[0]))
            assert abs(energy - 1.0) < 1e-10
            assert abs(float(np.dot(g, w))) < 1e-9
            # np-route residuals (about 1e-15) lie below the bordered LU's
            # own roundoff (about 1e-13); the scaled comparison of
            # test_density_residuals_equal_the_dtn_residuals covers them
            if solver is solve_plasmonic:
                one = bordered_residuals(dtn, eps, g[:, None])
                assert one.shape == (1,)
                assert abs(one[0] - spec.residuals[i]) < 1e-14


def test_densities_carry_the_eigenfunctions():
    # on both routes the densities phi are weighted-mean-zero with
    # g = P S phi and <g, (K* - 1/2) phi> = 1, and N- applied through the
    # bordered LU gives N- g = (K* - 1/2) phi on them
    dtn = build_dtn(sample_curve(KITE, 128))
    w = dtn.sample.weights
    for solver in (solve_plasmonic, np_route):
        spec = solver(dtn, num=40)
        phi, g = spec.densities, spec.eigenfunctions
        size = np.sqrt(w @ (phi * phi) * w.sum())
        assert np.all(np.abs(w @ phi) <= 1e-12 * size)
        sphi = dtn.blocks[0].single_layer @ phi
        assert np.max(np.abs(g - (sphi - (w @ sphi) / w.sum()))) < 1e-14
        dng = dtn.blocks[0].np_adjoint @ phi - 0.5 * phi
        assert np.max(np.abs(w @ (g * dng) - 1.0)) < 1e-12
        gap = np.sqrt(w @ (dtn.apply(g)[0] - dng) ** 2)
        assert np.all(gap <= 1e-10 * np.maximum(1.0, np.sqrt(w @ dng ** 2)))


def test_density_residuals_equal_the_dtn_residuals():
    # ((eps + 1) K* + (1 - eps)/2) phi, computed on the densities, is
    # (eps N- + N+) g for g = P S phi, with N- and N+ applied through the
    # bordered LU, on both routes
    dtn = build_dtn(sample_curve(KITE, 128))
    for solver in (solve_plasmonic, np_route):
        spec = solver(dtn, num=40)
        g = spec.eigenfunctions
        ref = bordered_residuals(dtn, spec.eigenvalues, g)
        ng = np.sqrt(dtn.sample.weights @ dtn.apply(g)[0] ** 2)
        assert np.all(np.abs(spec.residuals - ref)
                      <= 1e-10 * np.maximum(1.0, ng))


def test_block_route_residuals_equal_the_dtn_residuals(monkeypatch):
    # as above on the block route (KITE at N = 512, k = 52), whose K* phi
    # comes from the products K* V the step stored: they match K* applied
    # to phi, to roundoff
    dtn = build_dtn(sample_curve(KITE, 512))
    calls = count_block_steps(monkeypatch)
    spec = solve_plasmonic(dtn, num=40)
    assert calls == [True]
    g = spec.eigenfunctions
    ref = bordered_residuals(dtn, spec.eigenvalues, g)
    ng = np.sqrt(dtn.sample.weights @ dtn.apply(g)[0] ** 2)
    assert np.all(np.abs(spec.residuals - ref) <= 1e-10 * np.maximum(1.0, ng))
    phi, k_star_phi = np.split(spectrum2d._block_step(dtn, 40)[1], 2)
    k_star = dtn.blocks[0].np_adjoint
    bound = 100 * np.finfo(float).eps * np.linalg.norm(k_star, 1)
    assert np.all(np.linalg.norm(k_star_phi - k_star @ phi, axis=0)
                  <= bound * np.linalg.norm(phi, axis=0))


@pytest.mark.parametrize("curve, block, dim", [
    ("ellipse", "whole", 127), ("ellipse", "even", 64), ("ellipse", "odd", 63),
    ("kite", "whole", 127)])
def test_block_basis_is_mean_zero_and_m_orthonormal(curve, block, dim):
    # the node values Q y of a block's coordinates y, for Q the whole
    # sample's mean-zero basis or one mirror parity's
    param = KITE if curve == "kite" else CurveParam.ellipse(2.0, 1.0)
    dtn = build_dtn(sample_curve(param, 128))
    w = dtn.sample.weights
    spec = solve_plasmonic(dtn, num=20)
    assert np.max(np.abs(w @ spec.eigenfunctions)) < 1e-12
    part = {"whole": DtNBlock(w, bem2d._assemble(dtn.sample)),
            "even": dtn.blocks[0], "odd": dtn.blocks[-1]}[block]
    q = part.densities(np.eye(dim))
    assert q.shape == (128, dim)
    assert np.max(np.abs(w @ q)) < 1e-13
    assert np.max(np.abs(q.T @ (w[:, None] * q) - np.eye(dim))) < 1e-13
    y = np.random.default_rng(1).standard_normal((dim, 3))
    assert np.max(np.abs(part.coordinates(part.densities(y)) - y)) < 1e-13


def test_both_routes_agree_on_kite():
    dtn = build_dtn(sample_curve(KITE, 128))
    a = solve_plasmonic(dtn, num=10)
    b = np_route(dtn, num=10)
    assert a.route == "dtn" and b.route == "np"
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-10
    assert np.max(b.residuals) < 1e-9


def test_rayleigh_recovers_eigenvalues_and_rejects_constants():
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 96))
    spec = solve_plasmonic(dtn, num=6)
    for i, eps in enumerate(spec.eigenvalues):
        assert abs(rayleigh(dtn, spec.eigenfunctions[:, i]) - eps) < 1e-10
    with pytest.raises(EInfinitySignal):
        rayleigh(dtn, np.ones(dtn.sample.n))


def test_rayleigh_is_scale_free():
    # the constant test compares <g, N- g> |curve length| with <g, g>, so
    # neither a small eigenfunction nor a small curve trips it, and
    # constants are refused at every scale
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 128))
    spec = solve_plasmonic(dtn, num=4)
    g = spec.eigenfunctions[:, 0]
    for s in (1e3, 1.0, 1e-7):
        assert abs(rayleigh(dtn, s * g) - spec.eigenvalues[0]) < 1e-12
    assert criticality_residual(dtn, 1e-6 * g) < 1e-6
    for s in (1.0, 1e-6):
        with pytest.raises(EInfinitySignal):
            rayleigh(dtn, s * np.ones(128))
    small = build_dtn(sample_curve(CurveParam.ellipse(2e-6, 1e-6), 128))
    assert abs(rayleigh(small, 1e-7 * g) - spec.eigenvalues[0]) < 1e-12
    with pytest.raises(EInfinitySignal):
        rayleigh(small, np.ones(128))


def test_criticality_matches_a_rayleigh_loop():
    # the batched probes are the same directions and quotients as one
    # rayleigh call per probe, on smooth data that is not critical; the
    # two agree to the roundoff of a central difference, a few
    # u max(1, |q|) / step (measured up to 3.2 of these units)
    dtn = build_dtn(sample_curve(CurveParam.ellipse(5.0, 1.0), 96))
    w, t = dtn.sample.weights, dtn.sample.t
    c = np.random.default_rng(3).standard_normal((2, 3))
    g = sum(c[0, l] * np.cos((l + 1) * t) + c[1, l] * np.sin((l + 1) * t)
            for l in range(3))
    g -= (w @ g) / w.sum()
    scale = np.sqrt(g @ (w * g))
    probe = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        v = probe.standard_normal(96)
        v -= (w @ v) / w.sum()
        v *= scale / np.sqrt(v @ (w * v))
        step = 1e-5 * v
        worst = max(worst, abs(rayleigh(dtn, g + step)
                               - rayleigh(dtn, g - step)) / 2e-5)
    got = criticality_residual(dtn, g, seed=3)
    assert worst > 0.1
    roundoff = np.finfo(float).eps * max(1.0, abs(rayleigh(dtn, g))) / 1e-5
    assert abs(got - worst) <= 1e2 * roundoff


def test_eigenpairs_are_critical_points():
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 96))
    spec = solve_plasmonic(dtn, num=4)
    for i in range(4):
        worst = criticality_residual(dtn, spec.eigenfunctions[:, i], seed=i)
        assert worst < 1e-6


def test_num_validation():
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 32))
    with pytest.raises(ConfigError):
        solve_plasmonic(dtn, num=0)
    with pytest.raises(ConfigError):
        solve_plasmonic(dtn, num=32)
    for num in (0, -3, 32):
        with pytest.raises(ConfigError):
            np_route(dtn, num=num)


@pytest.mark.parametrize("n", [5, 63, 64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_pencil_eigh_matches_the_scipy_wrapper_bit_for_bit(n, order):
    # sygvd with eigh's arguments; the Fortran-ordered pencil is solved in
    # place, as solve_plasmonic's is
    rng = np.random.default_rng(n)
    x, z = rng.standard_normal((2, n, n))
    pencil = [np.array(m @ m.T + n * np.eye(n), order=order) for m in (x, z)]
    want = scipy.linalg.eigh(*pencil)
    got = _pencil_eigh(*pencil, "solve_plasmonic", overwrite_a=order == "F",
                       overwrite_b=order == "F")
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_indefinite_exterior_form_is_refused():
    with pytest.raises(NumericalError) as info:
        _pencil_eigh(np.eye(3), np.diag([1.0, -1.0, 2.0]), "follow_branch")
    assert (info.value.module, info.value.operation, info.value.contract) == (
        "spectrum2d", "follow_branch", "exterior energy form must be "
        "positive definite on mean-zero data")


@pytest.mark.parametrize("operation", ["solve_plasmonic", "follow_branch",
                                       "compute_g0"])
def test_nan_in_k_star_is_refused(operation):
    # no finiteness scan guards the LAPACK calls: a NaN in K* must still
    # end in a named error, from the block pencils or the flux
    dtn = build_dtn(sample_curve(CurveParam.ellipse(2.0, 1.0), 64))
    spec = solve_plasmonic(dtn, num=4)
    for block in dtn.blocks:
        block.np_adjoint = block.np_adjoint.copy()
        block.np_adjoint[3, 5] = np.nan
    run = {"solve_plasmonic": lambda: solve_plasmonic(dtn, num=4),
           "follow_branch": lambda: follow_branch(
               dtn, spec.eigenvalues[0], spec.densities[:, :3],
               spec.densities[:, 0], 4),
           "compute_g0": lambda: bem2d.compute_g0(dtn)}[operation]
    with pytest.raises(PlasmeigError) as info:
        run()
    assert info.value.operation == operation


def test_clustering_stats_shrink_with_the_window():
    spec = solve_plasmonic(build_dtn(sample_curve(KITE, 128)), num=40)
    stats = spec.clustering_stats()
    assert stats["tail_max"] < 0.05
    assert stats["tail_mean"] <= stats["tail_max"]
    # the tail is every distance to 1 after the 20 largest
    dist = np.sort(np.abs(spec.eigenvalues - 1.0))[::-1]
    tail = dist[20:]
    assert stats == {"tail_mean": float(tail.mean()),
                     "tail_max": float(tail.max())}
    assert float(dist[30:].max()) <= stats["tail_max"]


def test_json_and_csv_artifacts():
    curve = CurveParam.ellipse(2.0, 1.0)
    spec = solve_plasmonic(build_dtn(sample_curve(curve, 64)), num=5)
    text = canonical_json(spec.to_json_dict())
    data = json.loads(text)
    assert canonical_json(data) == text
    assert set(data) == {"N", "route", "eigenvalues", "residuals",
                         "clustering"}
    assert data["N"] == 64
    assert data["route"] == "dtn"
    assert len(data["eigenvalues"]) == 5
    lines = spec.csv_text().splitlines()
    assert lines[0] == "k,epsilon,residual"
    assert len(lines) == 6
    k, eps, res = lines[1].split(",")
    assert int(k) == 0
    assert math.isclose(float(eps), spec.eigenvalues[0], rel_tol=0.0,
                        abs_tol=0.0)
    assert float(res) == spec.residuals[0]


@pytest.mark.parametrize("aspect, n", [(10.0, 64), (20.0, 128)])
def test_np_route_drops_a_flux_eigenvalue_off_one_half(aspect, n):
    # the unresolved tips move the flux eigenvalue off 1/2 (by 2.6e-6 and
    # 2.7e-6); the flux cosine still singles it out
    dtn = build_dtn(sample_curve(CurveParam.ellipse(aspect, 1.0), n))
    dense = solve_plasmonic(dtn, num=20).eigenvalues
    assert dense.shape == (20,)
    assert np.all(np.abs(np_route(dtn, num=20).eigenvalues - dense)
                  <= 1e-10 * np.abs(dense))


def test_arnoldi_matches_the_np_route_on_the_kite(monkeypatch):
    calls = count_block_steps(monkeypatch)
    dtn = build_dtn(sample_curve(KITE, 512))
    spec = solve_plasmonic(dtn, num=40)
    assert calls == [True]
    ref = np_route(dtn, num=40).eigenvalues
    assert np.all(np.abs(spec.eigenvalues - ref) <= 1e-12 * np.abs(ref))
    assert np.max(spec.residuals) < 1e-12
    again = solve_plasmonic(dtn, num=40)
    assert np.array_equal(again.eigenvalues, spec.eigenvalues)
    assert np.array_equal(again.densities, spec.densities)


@pytest.mark.parametrize("a, b, num", [(20.0, 1.0, 40), (30.0, 1.0, 40),
                                       (1.2, 0.8, 10), (1.068, 0.932, 40)])
def test_arnoldi_matches_separation_of_variables(monkeypatch, a, b, num):
    # the block step converges on the near-circle capacity-1 ellipses, whose
    # K* eigenvalues reach roundoff after about 24, and within its cap k + 160
    # on ellipses (a, 1) (K* eigenvalues +-q^j / 2, q = (a - 1) / (a + 1)),
    # whose mirror halves need the dimensions 104 and 128 for k = 32 (the
    # whole K* needed 160 and 184 for k = 52)
    calls = count_block_steps(monkeypatch)
    spec = solve_plasmonic(
        build_dtn(sample_curve(CurveParam.ellipse(a, b), 1024)), num=num)
    assert calls == [True]
    exact = ellipse_plasmonic_eigenvalues(a, b, num=num)
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-10


def test_arnoldi_on_the_circle(monkeypatch):
    # every eigenvalue of K* but 1/2 sits at roundoff, so the selection ties
    calls = count_block_steps(monkeypatch)
    spec = solve_plasmonic(
        build_dtn(sample_curve(CurveParam.circle(1.0), 1024)), num=20)
    assert calls == [True]
    assert np.max(np.abs(spec.eigenvalues - 1.0)) <= 1e-8


@pytest.mark.parametrize("curve", [CurveParam.circle(1.0),
                                   CurveParam.ellipse(1.068, 0.932)])
def test_block_step_deflates_rank_deficient_blocks(monkeypatch, curve):
    # K* has rank 1 on the unit circle, and on the near circle its
    # eigenvalues reach roundoff after about 24: most columns of K* V_j lie
    # in the basis already and are deflated
    dtn = build_dtn(sample_curve(curve, 1024))
    calls = count_block_steps(monkeypatch)
    spec = solve_plasmonic(dtn, num=40)
    assert calls == [True]
    ref = np_route(dtn, num=40).eigenvalues
    assert np.all(np.abs(spec.eigenvalues - ref) <= 1e-13 * ref)
    assert np.max(spec.residuals) < 1e-12
    first = spectrum2d._block_step(dtn, 40)
    second = spectrum2d._block_step(dtn, 40)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))


STAR = CurveParam.fourier(
    cos=[1.5157170963045348, 0.0, 0.053453975572009885, 0.001836569022699422,
         -0.004992779854505226, -0.024590917516686416, 0.017717811820101948],
    sin=[0.0, 0.08458942942586233, 0.0518062001416686, 0.012574862298986925,
         0.020203977914540414, -0.003823225869544866])


@pytest.mark.parametrize("curve, passes", [
    (KITE, 9), (STAR, 10), (CurveParam.ellipse(20.0, 1.0), 13)])
def test_block_step_pass_count(monkeypatch, curve, passes):
    # a regression guard on the cost of the block step (a count, not a
    # timing): each block's K* is read once per block of 8 vectors, 9 and 10
    # times for k = 52 at N = 1024 (the dimensions 72 and 80) on the
    # asymmetric KITE and STAR, 13 times on each half of the mirror-symmetric
    # ellipse(20, 1) for k = 32 (the dimension 104; the whole K* took 20
    # passes to the dimension 160). STAR is a random star curve of the
    # spectrum_large workload
    dtn = build_dtn(sample_curve(curve, 1024))
    pairs, counted = block_step_passes(monkeypatch, dtn, 40)
    assert pairs is not None
    assert counted == [passes] * len(dtn.blocks)


@pytest.mark.parametrize("curve, dims", [(STAR, [72, 80]), (KITE, [72])])
def test_one_decomposition_per_check(monkeypatch, curve, dims):
    # each convergence check factors the m x m Hessenberg H once, into its
    # real Schur form T, whose eigenvectors then give the Ritz vectors; at
    # k = 52 and N = 1024 STAR is checked at the dimensions 72 and 80 and
    # KITE at 72
    dtn = build_dtn(sample_curve(curve, 1024))
    seen = {"schur": [], "eig": []}
    for name, calls in seen.items():
        def spy(a, *args, _real=getattr(spectrum2d.scipy.linalg, name),
                _calls=calls, **kwargs):
            _calls.append(len(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(spectrum2d.scipy.linalg, name, spy)
    assert spectrum2d._block_step(dtn, 40) is not None
    assert seen == {"schur": dims, "eig": dims}


@pytest.mark.parametrize("n, k, vectors", [(128, 16, "real"),
                                             (256, 22, "complex")])
def test_ritz_vectors_of_both_kinds_are_eigenvectors(monkeypatch, n, k,
                                                     vectors):
    # on the kite, the eigenvectors x of the Schur form T, and so the Ritz
    # vectors y = Z x, are real at the accepting check at N = 128 (k = 16,
    # num = 4, every Ritz value real) and complex at N = 256 (k = 22,
    # num = 10); either kind reaches the basis and the stored products K* V
    # as one real product on y.view(float), and each selected density is a
    # K* eigenvector
    num = k - spectrum2d._ARNOLDI_MARGIN
    kinds = []
    eig = spectrum2d.scipy.linalg.eig

    def spy(*args, **kwargs):
        lam, x = eig(*args, **kwargs)
        kinds.append("complex" if np.iscomplexobj(x) else "real")
        return lam, x

    monkeypatch.setattr(spectrum2d.scipy.linalg, "eig", spy)
    dtn = build_dtn(sample_curve(KITE, n))
    k_star = dtn.blocks[0].np_adjoint
    eps, pairs = spectrum2d._block_step(dtn, num)
    lam = (eps - 1.0) / (2.0 * (eps + 1.0))
    assert kinds[-1] == vectors
    assert pairs.shape == (2 * n, num)
    phi, k_star_phi = np.split(pairs, 2)
    bound = 100 * np.finfo(float).eps * np.linalg.norm(k_star, 1)
    size = np.linalg.norm(phi, axis=0)
    assert np.all(np.linalg.norm(k_star @ phi - phi * lam, axis=0)
                  <= bound * size)
    assert np.all(np.linalg.norm(k_star_phi - phi * lam, axis=0)
                  <= bound * size)


def test_block_step_stops_within_the_space(monkeypatch):
    # at N = 104 and num = 1 (k = 13) the cap k + 160 passes N: the step
    # stops at the dimension 96 of the one block, whose next block fills
    # the space, after 12 passes over K*, and at the dimension 40 of each
    # mirror block (53 and 51 rows) after 5; ellipse(30, 1) needs more
    sample = sample_curve(CurveParam.ellipse(30.0, 1.0), 104)
    for dtn, passes in ((one_block(sample), [12]),
                        (build_dtn(sample), [5, 5])):
        with monkeypatch.context() as patch:
            assert block_step_passes(patch, dtn, 1) == (None, passes)


def test_block_step_memory_stays_below_one_matrix():
    # the step keeps K* V beside the basis V, one basis-sized array more,
    # and makes no N x N temporary: at N = 1024 and k = 52 its tracemalloc
    # peak, with the selection made inside the step, was 6.9 MB, below the
    # 8.4 MB of one N x N float64 matrix
    dtn = build_dtn(sample_curve(STAR, 1024))
    tracemalloc.start()
    try:
        assert spectrum2d._block_step(dtn, 40) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 ** 2


def test_selection_guard_sees_a_cut_through_the_wanted_values():
    # ellipse(20, 1): K* has 1/2 and the pairs +-q^k / 2, q = 19/21; with
    # only num + 1 of them the selection misses values farther from 1 than
    # its own, and the guard must say so; with the margin it holds
    q, num = 19.0 / 21.0, 40
    half = 0.5 * q ** np.arange(1, 200)
    spectrum = np.concatenate([half, -half])
    top = spectrum[np.argsort(-np.abs(spectrum), kind="stable")]
    full = spectrum[select_far_from_one(
        (1 + 2 * spectrum) / (1 - 2 * spectrum), num)]
    for k, complete in ((num, False), (num + 11, True)):
        lam = top[:k]
        eps = (1 + 2 * lam) / (1 - 2 * lam)
        chosen = eps[select_far_from_one(eps, num)]
        assert _selection_complete(np.append(lam, 0.5), chosen) == complete
        exact = (1 + 2 * full) / (1 - 2 * full)
        assert np.array_equal(chosen, exact) is complete


def force_route(monkeypatch, block_step):
    """Make the size rule (_takes_block_step) choose the block step (True)
    or the dense pencil (False) wherever it is asked."""
    monkeypatch.setattr(spectrum2d, "_takes_block_step",
                        lambda *args: block_step)


def count_dense_solves(monkeypatch):
    """Record the dense pencil solves (_pencil_eigh) by operation."""
    calls = []
    solve = spectrum2d._pencil_eigh

    def counted(aminus, aplus, operation, **options):
        calls.append(operation)
        return solve(aminus, aplus, operation, **options)

    monkeypatch.setattr(spectrum2d, "_pencil_eigh", counted)
    return calls


def test_failed_guard_grows_the_block_step(monkeypatch):
    # with a margin of 1 on ellipse(20, 1) the run on each mirror half
    # converges at k = 11 (the dimension 88), but the union's selection
    # fails the guard of both; each grows to k = 19 and converges at the
    # dimension 96 with the dense pencil's answer (on the whole K*: k = 21,
    # then 29 at the dimension 136)
    dtn = build_dtn(sample_curve(CurveParam.ellipse(20.0, 1.0), 256))
    force_route(monkeypatch, False)
    dense = solve_plasmonic(dtn, num=20).eigenvalues
    calls = count_block_steps(monkeypatch)
    solves = count_dense_solves(monkeypatch)
    force_route(monkeypatch, True)
    monkeypatch.setattr(spectrum2d, "_ARNOLDI_MARGIN", 1)
    spec = solve_plasmonic(dtn, num=20)
    assert calls == [True]
    assert solves == []
    assert np.all(np.abs(spec.eigenvalues - dense) <= 1e-13 * np.abs(dense))


def test_elongated_ellipse_needs_no_dense_solve(monkeypatch):
    # ellipse(40, 1) at N = 1024: the first converged selection of each
    # mirror half (k = 32, the dimension 144) settles num 40; on the whole
    # K* the first (k = 52) failed the guard and one more block (k = 60)
    # settled it
    solves = count_dense_solves(monkeypatch)
    spec = solve_plasmonic(
        build_dtn(sample_curve(CurveParam.ellipse(40.0, 1.0), 1024)), num=40)
    assert solves == []
    exact = np.array(elliptic_eigenvalues(40.0, 1.0, 40))
    assert np.all(np.abs(spec.eigenvalues - exact) <= 3e-13 * exact)


def test_unconverged_block_step_falls_back_to_the_dense_pencil(monkeypatch):
    # a block step that stops at its cap leaves the solve to the dense pencil
    dtn = build_dtn(sample_curve(KITE, 512))
    force_route(monkeypatch, False)
    dense = solve_plasmonic(dtn, num=20)
    force_route(monkeypatch, True)
    monkeypatch.setattr(spectrum2d, "_block_step", lambda dtn, num: None)
    spec = solve_plasmonic(dtn, num=20)
    assert np.array_equal(spec.eigenvalues, dense.eigenvalues)


@pytest.mark.parametrize("curve, n, num, block_step", [
    (KITE, 256, 40, True), (CurveParam.ellipse(5.0, 1.0), 256, 10, False),
    (CurveParam.ellipse(10.0, 1.0), 1024, 40, True), (STAR, 1024, 40, True)],
    ids=["kite-256", "ellipse5-256", "ellipse10-1024", "star-1024"])
def test_route_follows_the_symmetry_block_size(monkeypatch, curve, n, num,
                                               block_step):
    # the size rule reads the rows of the largest symmetry block: the kite's
    # one block of 256 rows takes the block step for num 40, the two blocks
    # of 129 rows of ellipse(5, 1) their dense pencils for num 10, and both
    # spectrum_large shapes at N = 1024 (ellipse, radial star) the block
    # step; the other route, forced, gives the same eigenvalues
    dtn = build_dtn(sample_curve(curve, n))
    steps = count_block_steps(monkeypatch)
    solves = count_dense_solves(monkeypatch)
    chosen = solve_plasmonic(dtn, num).eigenvalues
    assert steps == ([True] if block_step else [])
    assert solves == ([] if block_step
                      else ["solve_plasmonic"] * len(dtn.blocks))
    force_route(monkeypatch, not block_step)
    other = solve_plasmonic(dtn, num).eigenvalues
    assert np.all(np.abs(chosen - other) <= 1e-13 * np.abs(other))


def twin_gap(eps):
    """The largest relative distance from 1/eps to the nearest selected
    value, over the selected eps whose twin 1/eps lies farther from 1 than
    every value left out (by more than roundoff), and how many those are."""
    inside = eps[np.abs(1.0 / eps - 1.0) > np.min(np.abs(eps - 1.0)) + 1e-12]
    gaps = np.min(np.abs(np.outer(inside, eps) - 1.0), axis=1)
    return float(np.max(gaps, initial=0.0)), len(inside)


@st.composite
def resolved_curves(draw):
    """A random curve resolved at N = 256, (curve, symmetry blocks): an
    ellipse of aspect 1.2 to 4, or r = r0 + sum_{m=2}^{4} (c_m cos m t +
    s_m sin m t) with |c_m|, |s_m| <= 0.12 r0 / m (the spectrum_large
    radial curves), c_2 at least 0.02 r0 in modulus, and either no sine
    term or s_2 at least 0.02 r0 in modulus."""
    kind = draw(st.sampled_from(["radial", "cos", "ellipse"]))
    if kind == "ellipse":
        return CurveParam.ellipse(draw(st.floats(1.2, 4.0)), 1.0), 2
    r0 = draw(st.floats(1.5, 2.0))

    def coefficients():
        # the m = 2 term at 1/3 of its largest size or more: 0.02 r0
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3,
                              max_size=3))
        sizes = [draw(st.floats(1.0 / 3.0, 1.0))] + draw(st.lists(
            st.floats(0.0, 1.0), min_size=2, max_size=2))
        return [0.12 * r0 / m * x * sign
                for m, x, sign in zip((2, 3, 4), sizes, signs)]

    cos = [r0, 0.0] + coefficients()
    if kind == "cos":
        return CurveParam.fourier(cos=cos), 2
    return CurveParam.fourier(cos=cos, sin=[0.0] + coefficients()), 1


@given(resolved_curves())
def test_twins_are_selected_together_on_both_routes(drawn):
    # on a simply connected domain K*'s spectrum without 1/2 is symmetric
    # about 0, so every eps has its twin 1/eps; both routes keep the
    # twins of a resolved curve to roundoff (2.6e-16 to 7.5e-15 measured)
    curve, blocks = drawn
    dtn = build_dtn(sample_curve(curve, 256))
    assert len(dtn.blocks) == blocks
    for block_step in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            force_route(patch, block_step)
            gap, twins = twin_gap(solve_plasmonic(dtn, 40).eigenvalues)
        assert twins >= 8
        assert gap <= 1e-12
