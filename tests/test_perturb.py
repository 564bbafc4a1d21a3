"""Eigenvalue perturbation under normal shifts: sphere and plane branches."""

import collections
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from plasmeig import bem2d, perturb, sphere3d
from plasmeig.bem2d import build_dtn
from plasmeig.curve2d import (CurveParam, ShapeFn2D, sample_curve,
                              tangential_derivative)
from plasmeig.errors import (ConfigError, NumericalError,
                             PerturbationError, ShapeMismatchError,
                             SplittingError)
from plasmeig.perturb import (_first_order_form, epsddot, epsddot_flux_route,
                              epsdot_2d, q1_matrix, solve_udot,
                              uniform_shape)
from plasmeig.spectrum2d import PlasmonicSpectrum, solve_plasmonic
from plasmeig.sphere3d import SHField, sphere_grid, synthesize
from plasmeig.validate import GOLDEN_EPSDDOT_Y20

Y20 = SHField.basis(2, 2, 0)

# first-derivative branches of the threefold eigenvalue 2 for shape Y20:
# twice-degenerate -9/(2 sqrt(5 pi)) plus a simple 9/sqrt(5 pi)
BRANCH_SCALE = 9.0 / math.sqrt(5.0 * math.pi)


def second_order(k, branch, a):
    return epsddot(solve_udot(q1_matrix(k, a), branch))


def random_shape(L, seed):
    rng = np.random.default_rng(seed)
    f = SHField(L)
    for l in range(L + 1):
        f.coeffs[l, L - l:L + l + 1] = rng.standard_normal(2 * l + 1)
    return f


def test_uniform_shape_is_constant():
    vals = synthesize(sphere_grid(0), [uniform_shape(0.3)])[0][0]
    assert np.max(np.abs(vals - 0.3)) < 1e-14


def test_splitting_matrix_is_symmetric_and_traceless():
    for k in (1, 2):
        report = q1_matrix(k, random_shape(3, seed=k))
        scale = max(1.0, float(np.max(np.abs(report.matrix))))
        assert abs(np.trace(report.matrix)) < 1e-10 * scale
        assert report.dimension == 2 * k + 1
        assert np.all(np.diff(report.branches) >= 0.0)


@given(st.integers(min_value=0, max_value=10_000))
def test_branch_sum_vanishes_for_any_shape(seed):
    # the splitting preserves the eigenvalue average at first order
    report = q1_matrix(1, random_shape(2, seed))
    scale = max(1.0, float(np.max(np.abs(report.matrix))))
    assert abs(np.trace(report.matrix)) < 1e-10 * scale


def test_uniform_shift_does_not_split():
    for k in (1, 2):
        report = q1_matrix(k, uniform_shape(1.0))
        assert np.max(np.abs(report.matrix)) < 1e-10


def test_splitting_branches_for_axial_quadrupole():
    report = q1_matrix(1, Y20)
    want = np.array([-0.5 * BRANCH_SCALE, -0.5 * BRANCH_SCALE, BRANCH_SCALE])
    assert np.max(np.abs(report.branches - want)) < 1e-12
    assert report.epsilon == 2.0
    assert report.basis_residual < 1e-12
    # the simple branch is the axial one: its trace is Y_{1,0} up to sign
    trace = report.branch_trace(2)
    assert abs(abs(trace.coeffs[1, 0 + trace.L]) - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        report.branch_trace(3)


def test_q1_matrix_matches_per_entry_quadrature():
    k, a = 3, random_shape(4, seed=3)
    report = q1_matrix(k, a)
    eps = (k + 1.0) / k
    grid = sphere_grid(k + a.L + 2)
    (a_vals,), _ = synthesize(grid, [a])
    fields = [SHField.basis(k, k, m) for m in range(-k, k + 1)]
    vals = [synthesize(grid, [f])[0][0] for f in fields]
    grads = [synthesize(grid, gradients=[f])[1][0] for f in fields]
    want = np.array([[(eps + 1.0) * (
        -grid.integrate(a_vals * (gi[0] * gj[0] + gi[1] * gj[1])) / k
        + eps * k * grid.integrate(a_vals * vi * vj))
        for gj, vj in zip(grads, vals)] for gi, vi in zip(grads, vals)])
    scale = max(1.0, float(np.max(np.abs(report.matrix))))
    assert np.max(np.abs(report.matrix - want)) < 1e-13 * scale


def test_splitting_is_linear_in_the_shape():
    a = random_shape(2, seed=5)
    m1 = q1_matrix(1, a).matrix
    m2 = q1_matrix(1, a.scaled(2.0)).matrix
    assert np.max(np.abs(m2 - 2.0 * m1)) < 1e-12


def test_eigenfunction_derivative_solves_the_system():
    sol = solve_udot(q1_matrix(1, Y20), 2)
    assert sol.compatibility_residual < 1e-10
    # zero-E gauge: no resonant-degree component in the interior trace
    assert np.max(np.abs(sol.phi.coeffs[1])) < 1e-15
    assert sol.epsilon == 2.0
    assert abs(sol.epsdot - BRANCH_SCALE) < 1e-12


def test_wrong_branch_slope_fails_compatibility():
    report = q1_matrix(1, Y20)
    report.branches = report.branches + 0.1
    with pytest.raises(SplittingError):
        solve_udot(report, 2)


def test_second_derivative_vanishes_for_uniform_shift():
    for k in (1, 2):
        report = second_order(k, 0, uniform_shape(1.0))
        assert abs(report.epsddot) < 1e-8
        assert report.gauge_residual < 1e-10


def test_second_derivative_golden_value():
    report = second_order(1, 2, Y20)
    assert abs(report.epsddot - GOLDEN_EPSDDOT_Y20) < 1e-10
    assert report.gauge_residual < 1e-10
    assert report.compatibility_residual < 1e-10
    assert len(report.lines) == 6
    assert abs(2.0 * sum(report.lines) - report.epsddot) < 1e-14


def test_second_derivative_scales_quadratically():
    a = random_shape(2, seed=12)
    base = second_order(1, 0, a).epsddot
    doubled = second_order(1, 0, a.scaled(2.0)).epsddot
    assert abs(doubled - 4.0 * base) < 1e-8 * max(1.0, abs(base))


def test_flux_route_agrees_with_quadrature_formula():
    for seed in (0, 1):
        a = random_shape(2, seed=seed)
        udot = solve_udot(q1_matrix(1, a), 1)
        direct = epsddot(udot).epsddot
        flux = epsddot_flux_route(udot)
        assert abs(direct - flux) < 1e-8 * max(1.0, abs(direct))


@pytest.mark.parametrize("c, stage", [
    (1e160, "solve_udot"), (1e300, "solve_udot"),
    (1.5e154, "epsddot"), (8e153, "epsddot_flux_route"),
    (1e308, "q1_matrix")])
def test_overflowing_shape_is_refused_where_it_overflows(c, stage):
    # the chain is quadratic in the shape: a Y20 shape whose squared size
    # overflows gives inf and nan, which each stage refuses where it forms
    # them. From 1e160 the compatibility scale is inf, which would pass any
    # residual; just below it epsddot or only the flux route overflows
    # (the flux route alone from about 5.6e153 to 1.2e154), and at 1e308 q1
    # itself. Each stage computes under np.errstate, so no numpy warning
    # leaks (the suite turns warnings into errors)
    a = SHField.basis(2, 2, 0).scaled(c)
    with pytest.raises(NumericalError, match="must be finite") as info:
        udot = solve_udot(q1_matrix(1, a), 0)
        epsddot(udot)
        epsddot_flux_route(udot)
    assert info.value.operation == stage


def test_p1u_on_the_uniform_shape():
    # with a constant shape P1 = -div(a grad) reduces to the degree
    # multiplier l(l+1), so the solve's P1 u is k(k+1) times the trace
    for k in (1, 2, 3):
        report = q1_matrix(k, uniform_shape(1.0))
        for branch in range(2 * k + 1):
            sol = solve_udot(report, branch)
            assert sol.p1u.L == sol.phi.L == k
            want = sol.trace.truncated(sol.p1u.L).scaled(k * (k + 1.0))
            assert np.max(np.abs(sol.p1u.coeffs - want.coeffs)) < 1e-12


def test_kernel_calls_do_not_grow_with_the_degree(monkeypatch):
    # the 2k + 1 basis harmonics are read off the grid tables, every stage
    # stacks the fields it evaluates on one grid, and the second-order
    # routes take P1 u, the projection of a dn u and the values of a and
    # dn u from the solve
    counts = collections.Counter()
    for name in ("_to_grid", "_from_grid"):
        def counted(*args, _kernel=getattr(sphere3d, name), _name=name):
            counts[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(sphere3d, name, counted)

    def calls(run):
        counts.clear()
        run()
        return dict(counts)

    a = random_shape(3, seed=4)

    for k in (1, 30):
        report = q1_matrix(k, a)
        udot = solve_udot(report, 0)
        # q1 1, solve_udot 4, epsddot 2, the flux route 5: 12 per chain
        assert calls(lambda: q1_matrix(k, a)) == {"_to_grid": 1}
        assert calls(lambda: solve_udot(report, 0)) == {
            "_to_grid": 2, "_from_grid": 2}
        assert calls(lambda: epsddot(udot)) == {"_to_grid": 2}
        assert calls(lambda: epsddot_flux_route(udot)) == {
            "_to_grid": 3, "_from_grid": 2}


def grids_asked(pad, run):
    """run() with every sphere_grid(B) answered by the grid of band B + pad;
    returns run()'s result and the bands B asked for."""
    asked = []

    def padded(band):
        asked.append(band)
        return sphere_grid(band + pad)

    with mock.patch.object(sphere3d, "sphere_grid", padded):
        return run(), asked


@given(k=st.integers(1, 12), L=st.integers(0, 12),
       seed=st.integers(0, 10_000))
@example(k=3, L=0, seed=0)
@example(k=5, L=1, seed=1)
@example(k=4, L=7, seed=2)
@example(k=2, L=12, seed=3)
@example(k=12, L=12, seed=4)
def test_each_stage_asks_for_its_exact_band(k, L, seed):
    # a grid of band B integrates degree 2B + 1 exactly, so each stage asks
    # for the smallest band that integrates its integrand and holds the
    # fields it synthesizes: q1 max(k + floor(L/2), L), the solve and
    # epsddot L + k, the flux route 2L + k. Two bands more change nothing
    # beyond roundoff; one band less is refused or moves q1 by O(1)
    a = random_shape(L, seed)
    report, (q1_band,) = grids_asked(0, lambda: q1_matrix(k, a))
    udot, (udot_band,) = grids_asked(0, lambda: solve_udot(report, 0))
    second, (second_band,) = grids_asked(0, lambda: epsddot(udot))
    flux, (flux_band,) = grids_asked(0, lambda: epsddot_flux_route(udot))
    assert (q1_band, udot_band, second_band, flux_band) \
        == (max(k + L // 2, L), L + k, L + k, 2 * L + k)
    assert udot.phi.L == udot.p1u.L == udot.adnu.L == L + k

    # the padded chain starts from the same report, so that a nearly
    # degenerate branch does not amplify q1's roundoff into u-dot
    eps = report.epsilon
    a_max = float(np.max(np.abs(synthesize(sphere_grid(L), [a])[0])))
    q1_scale = (eps + 1.0) * (k + 1.0 + eps * k) * a_max
    padded_q1, _ = grids_asked(2, lambda: q1_matrix(k, a))
    assert np.max(np.abs(padded_q1.matrix - report.matrix)) \
        <= 1e-12 * q1_scale
    assert np.max(np.abs(padded_q1.branches - report.branches)) \
        <= 1e-12 * q1_scale
    padded_udot, _ = grids_asked(2, lambda: solve_udot(report, 0))
    padded_second, _ = grids_asked(2, lambda: epsddot(padded_udot))
    padded_flux, _ = grids_asked(2, lambda: epsddot_flux_route(padded_udot))
    scale = max(1.0, sum(abs(x) for x in second.lines))
    assert abs(padded_second.epsddot - second.epsddot) <= 1e-12 * scale
    assert abs(padded_flux - flux) <= 1e-12 * scale

    if q1_band - 1 < max(k, L):
        # the grid must hold the degree-k basis and the shape
        with pytest.raises(ShapeMismatchError):
            grids_asked(-1, lambda: q1_matrix(k, a))
    else:
        short, _ = grids_asked(-1, lambda: q1_matrix(k, a))
        assert np.max(np.abs(short.matrix - report.matrix)) \
            > 1e-3 * np.max(np.abs(report.matrix))


with open(os.path.join(os.path.dirname(__file__), "ledger.json")) as _f:
    LEDGER = json.load(_f)


def ledger_shape(L):
    """The ledger's fixed shape: cos(l^2 + 3m + 1) times Y_{l,m}."""
    f = SHField(L)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            f.set_coeff(l, m, math.cos(l * l + 3 * m + 1))
    return f


@pytest.mark.parametrize("entry", LEDGER["sphere"],
                         ids=lambda e: "k%d-L%d" % (e["k"], e["L"]))
def test_sphere_answers_match_the_ledger(entry):
    # the ledger remembers the chain's answers: a move beyond an entry's
    # tolerance (sized by its thread noise, see ledger.json) is a change of
    # answer, to be made by editing the ledger, not by roundoff
    report = q1_matrix(entry["k"], ledger_shape(entry["L"]))
    udot = solve_udot(report, entry["branch"])
    second = epsddot(udot)
    pinned = np.array(entry["branches"])
    assert np.max(np.abs(report.branches - pinned)) \
        <= entry["branches_rtol"] * np.max(np.abs(pinned))
    scale = max(1.0, sum(abs(x) for x in second.lines))
    for got, key in ((second.epsddot, "epsddot"),
                     (epsddot_flux_route(udot), "flux_route")):
        assert abs(got - entry[key]) <= entry["second_rtol"] * scale


def chain_answers(k, a):
    """Every array and number of a chain on branch k, as bytes."""
    report = q1_matrix(k, a)
    udot = solve_udot(report, k)
    second = epsddot(udot)
    return [x.tobytes() for x in (
        report.matrix, report.branches, report.basis, np.array(second.lines),
        np.array([report.basis_residual, second.epsddot,
                  epsddot_flux_route(udot), second.gauge_residual,
                  udot.compatibility_residual]))]


@pytest.mark.parametrize("k, L", [(1, 2), (8, 6), (30, 4)])
def test_q1_tables_give_the_same_bits_cold_and_warm(k, L):
    # q1's degree-k tables are kept per (k, grid): a warm call repeats the
    # cold one bit for bit, also on a padded grid after the unpadded one
    # has left its own entry
    a = random_shape(L, seed=k + L)
    for pad in (0, 2):
        perturb._q1_tables.cache_clear()
        cold, _ = grids_asked(pad, lambda: chain_answers(k, a))
        grids_asked(2 - pad, lambda: chain_answers(k, a))
        warm, _ = grids_asked(pad, lambda: chain_answers(k, a))
        assert warm == cold


def test_q1_tables_are_read_only():
    q1_matrix(3, random_shape(2, seed=0))
    tables = perturb._q1_tables(3, sphere3d.exact_grid(8, 3))
    assert perturb._q1_tables.cache_info().hits >= 1
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def per_column_eigenbasis(vals, vecs):
    """_canonical_eigenbasis with its sign convention applied one column at
    a time, group by group: the reference of the vectorized pass."""
    d = len(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    out = np.array(vecs, dtype=float)
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and abs(vals[stop] - vals[stop - 1]) \
                <= perturb._EIG_TIE_RTOL * scale:
            stop += 1
        group = slice(start, stop)
        if stop - start > 1:
            proj = vecs[:, group] @ vecs[:, group].T
            chosen = []
            for col in range(d):
                w = proj[:, col].copy()
                for b in chosen:
                    w -= (b @ w) * b
                nrm = np.linalg.norm(w)
                if nrm > 1e-6:
                    chosen.append(w / nrm)
                if len(chosen) == stop - start:
                    break
            out[:, group] = np.array(chosen).T
        for j in range(start, stop):
            lead = np.nonzero(np.abs(out[:, j]) > 1e-8)[0]
            if len(lead) and out[lead[0], j] < 0:
                out[:, j] = -out[:, j]
        start = stop
    return out


@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       blocks=st.integers(1, 4), seed=st.integers(0, 10_000))
@example(sizes=[3, 1, 2], blocks=3, seed=0)
def test_sign_pass_matches_the_per_column_loop(sizes, blocks, seed):
    # eigenvalues in groups tied to well inside the tie tolerance; an
    # orthogonal basis that is block diagonal up to a row permutation, so
    # that many columns lead with exact zeros
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    vals = np.sort(np.repeat(np.cumsum(rng.uniform(0.1, 2.0, len(sizes))),
                             sizes) + rng.uniform(-1e-11, 1e-11, d))
    vecs = np.zeros((d, d))
    for part in np.array_split(np.arange(d), min(blocks, d)):
        q = np.linalg.qr(rng.standard_normal((len(part), len(part))))[0]
        vecs[np.ix_(part, part)] = q
    # and a rotation of two rows by a tiny angle, orthogonal too, gives
    # some columns tiny entries below the sign threshold
    i, j = rng.integers(d, size=2)
    if i != j:
        c, s = math.cos(5e-9), math.sin(5e-9)
        vecs[[i, j]] = [c * vecs[i] - s * vecs[j], s * vecs[i] + c * vecs[j]]
    vecs = np.asfortranarray(vecs[rng.permutation(d)])
    assert perturb._canonical_eigenbasis(vals, vecs).tobytes() \
        == per_column_eigenbasis(vals, vecs).tobytes()


def test_degree_validation():
    with pytest.raises(ConfigError):
        q1_matrix(0, Y20)
    with pytest.raises(ConfigError):
        q1_matrix(-1, Y20)


# plane (2D) first-order checks ------------------------------------------

C3_CURVE = CurveParam.fourier(cos=[1.0, 0.0, 0.0, 0.2])


def corrupted(spec, eigenvalues=None, densities=None):
    """spec with its eigenvalues or densities replaced."""
    return PlasmonicSpectrum(
        spec.eigenvalues if eigenvalues is None else eigenvalues,
        spec.eigenfunctions, spec.densities if densities is None else densities,
        spec.residuals, spec.route, spec.n)


def test_plane_derivative_preconditions():
    # on the threefold curve index 0 is one member of a pair, and every
    # density of the pair must meet the contracts
    dtn = build_dtn(sample_curve(C3_CURVE, 132))
    spec = solve_plasmonic(dtn, num=6)
    a = ShapeFn2D(cos=[0.0, 0.0, 1.0])
    phi = spec.densities
    w = dtn.sample.weights
    # a constant part leaves no trace g with N- g = (K* - 1/2) phi
    shift = 1e-6 * math.sqrt(float(w @ (phi[:, 0] * phi[:, 0])) / w.sum())
    one = spec.eigenvalues.copy()
    one[0] = 1.0
    doubled, partner, shifted = phi.copy(), phi.copy(), phi.copy()
    doubled[:, 0] *= 2.0
    partner[:, 1] *= 2.0
    shifted[:, 0] += shift
    for bad, contract in ((corrupted(spec, eigenvalues=one), "eps != 1"),
                          (corrupted(spec, densities=doubled), "N- g"),
                          (corrupted(spec, densities=partner), "N- g"),
                          (corrupted(spec, densities=shifted), "mean-zero")):
        with pytest.raises(PerturbationError, match=contract):
            epsdot_2d(dtn, bad, 0, a)


def test_plane_derivative_refuses_a_singular_energy_gram():
    # a cluster whose two densities coincide passes every diagonal
    # contract, but its interior-energy Gram matrix is singular
    dtn = build_dtn(sample_curve(C3_CURVE, 132))
    spec = solve_plasmonic(dtn, num=6)
    eps, phi = spec.eigenvalues.copy(), spec.densities.copy()
    eps[1], phi[:, 1] = eps[0], phi[:, 0]
    with pytest.raises(NumericalError) as err:
        epsdot_2d(dtn, corrupted(spec, eigenvalues=eps, densities=phi), 0,
                  ShapeFn2D(cos=[0.0, 0.0, 1.0]))
    assert (err.value.module, err.value.operation, err.value.contract) == (
        "perturb", "epsdot_2d",
        "interior-energy Gram matrix must be positive definite")


def test_plane_derivative_refuses_an_overflowing_shape():
    # the form is linear in the shape: a NaN never reaches the eigensolver
    dtn = build_dtn(sample_curve(C3_CURVE, 132))
    spec = solve_plasmonic(dtn, num=6)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalError, match="must be finite"):
        epsdot_2d(dtn, spec, 0, ShapeFn2D(cos=[1e308, 1e308, 1e308]))


@pytest.mark.parametrize("n", [132, 512])
def test_symmetric_curve_epsdot_is_the_form_branch(n):
    # threefold-symmetric curve: double eigenvalues, which a twofold shape
    # splits; epsdot_2d at each index of the pair is the ascending branch
    # of the first-order form on the pair. At N = 512 the pair comes from
    # Arnoldi. The eigensolver's basis of the pair need not be
    # energy-orthonormal, and neither is phi0, phi0 + phi1 at unit energy
    dtn = build_dtn(sample_curve(C3_CURVE, n))
    spec = solve_plasmonic(dtn, num=6)
    eps = spec.eigenvalues
    assert abs(eps[1] - eps[0]) < 1e-10
    a = ShapeFn2D(cos=[0.0, 0.0, 1.0])

    weights = dtn.sample.weights
    pair = spec.densities[:, :2]
    traces = spec.eigenfunctions[:, :2]
    fluxes = bem2d._assemble(dtn.sample)[1] @ pair - 0.5 * pair
    form = _first_order_form(eps[0], weights * a.value(dtn.sample.t),
                             tangential_derivative(dtn.sample, traces).T,
                             fluxes.T)
    # energy-orthonormal basis of the pair, then the ordinary eigenproblem
    gram = traces.T @ (weights[:, None] * fluxes)
    d, v = scipy.linalg.eigh(0.5 * (gram + gram.T))
    basis = v / np.sqrt(d)
    branches = scipy.linalg.eigvalsh(basis.T @ form @ basis)
    assert branches[1] - branches[0] > 1e-3
    mixed = spec.densities.copy()
    mixed[:, 1] = (pair[:, 0] + pair[:, 1]) / np.sqrt(2.0 + 2.0 * gram[0, 1])
    assert np.sqrt((1.0 + gram[0, 1]) / 2.0) > 0.1   # its Gram entry
    for basis_spec in (spec, corrupted(spec, densities=mixed)):
        for j in range(2):
            slope, _ = epsdot_2d(dtn, basis_spec, j, a)
            assert abs(slope - branches[j]) < 1e-10 * max(1.0,
                                                          abs(branches[j]))
