"""Eigenvalue perturbation under normal shifts: sphere and plane branches."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from plasmeig.bem2d import build_dtn_for_curve
from plasmeig.curve2d import CurveParam, ShapeFn2D
from plasmeig.errors import ConfigError, PerturbationError, SplittingError
from plasmeig.perturb import (epsddot, epsddot_flux_route, epsdot_2d,
                              p1_apply, q1_matrix, solve_udot, uniform_shape)
from plasmeig.sphere3d import SHField
from plasmeig.validate import GOLDEN_EPSDDOT_Y20

Y20 = SHField.basis(2, 2, 0)

# first-derivative branches of the threefold eigenvalue 2 for shape Y20:
# twice-degenerate -9/(2 sqrt(5 pi)) plus a simple 9/sqrt(5 pi)
BRANCH_SCALE = 9.0 / math.sqrt(5.0 * math.pi)


def random_shape(L, seed):
    rng = np.random.default_rng(seed)
    f = SHField(L)
    for l in range(L + 1):
        f.coeffs[l, L - l:L + l + 1] = rng.standard_normal(2 * l + 1)
    return f


def test_uniform_shape_is_constant():
    from plasmeig.sphere3d import sh_synthesis
    vals = sh_synthesis(uniform_shape(0.3))
    assert np.max(np.abs(vals - 0.3)) < 1e-14


def test_splitting_matrix_is_symmetric_and_traceless():
    for k in (1, 2):
        report = q1_matrix(k, random_shape(3, seed=k))
        assert report.symmetry_residual() < 1e-12
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
    assert abs(abs(trace.coeff(1, 0)) - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        report.branch_trace(3)


def test_splitting_is_linear_in_the_shape():
    a = random_shape(2, seed=5)
    m1 = q1_matrix(1, a).matrix
    m2 = q1_matrix(1, a.scaled(2.0)).matrix
    assert np.max(np.abs(m2 - 2.0 * m1)) < 1e-12


def test_eigenfunction_derivative_solves_the_system():
    sol = solve_udot(1, 2, Y20)
    assert sol.system_residual < 1e-12
    assert sol.compatibility_residual < 1e-10
    # zero-E gauge: no resonant-degree component in the interior trace
    assert np.max(np.abs(sol.phi.coeffs[1])) < 1e-15
    assert sol.epsilon == 2.0
    assert abs(sol.epsdot - BRANCH_SCALE) < 1e-12


def test_wrong_branch_slope_fails_compatibility():
    report = q1_matrix(1, Y20)
    with pytest.raises(SplittingError):
        solve_udot(1, 2, Y20, epsdot=float(report.branches[2]) + 0.1,
                   report=report)


def test_second_derivative_vanishes_for_uniform_shift():
    for k in (1, 2):
        report = epsddot(k, 0, uniform_shape(1.0))
        assert abs(report.epsddot) < 1e-8
        assert report.gauge_residual < 1e-10


def test_second_derivative_golden_value():
    report = epsddot(1, 2, Y20)
    assert abs(report.epsddot - GOLDEN_EPSDDOT_Y20) < 1e-10
    assert report.gauge_residual < 1e-10
    assert report.compatibility_residual < 1e-10
    assert len(report.lines) == 6
    assert abs(2.0 * sum(report.lines) - report.epsddot) < 1e-14


def test_second_derivative_scales_quadratically():
    a = random_shape(2, seed=12)
    base = epsddot(1, 0, a).epsddot
    doubled = epsddot(1, 0, a.scaled(2.0)).epsddot
    assert abs(doubled - 4.0 * base) < 1e-8 * max(1.0, abs(base))


def test_flux_route_agrees_with_quadrature_formula():
    for seed in (0, 1):
        a = random_shape(2, seed=seed)
        report = q1_matrix(1, a)
        udot = solve_udot(1, 1, a, report=report)
        direct = epsddot(1, 1, a, udot=udot, report=report).epsddot
        flux = epsddot_flux_route(1, 1, a, udot=udot, report=report)
        assert abs(direct - flux) < 1e-8 * max(1.0, abs(direct))


def test_operator_identities_on_the_unit_shape():
    # with a constant shape P1 = -div(a grad) reduces to the degree
    # multiplier l(l+1)
    one = uniform_shape(1.0)
    v = SHField.basis(3, 3, 2)
    assert abs(p1_apply(one, v).coeff(3, 2) - 12.0) < 1e-12


def test_degree_validation():
    with pytest.raises(ConfigError):
        q1_matrix(0, Y20)
    with pytest.raises(ConfigError):
        q1_matrix(-1, Y20)


# plane (2D) first-order checks ------------------------------------------

C3_CURVE = CurveParam.fourier(cos=[1.0, 0.0, 0.0, 0.2])


def test_plane_derivative_preconditions():
    dtn = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 64)
    from plasmeig.spectrum2d import solve_plasmonic
    spec = solve_plasmonic(dtn, num=4)
    a = ShapeFn2D(cos=[0.0, 0.0, 1.0])
    with pytest.raises(PerturbationError):
        epsdot_2d(dtn, 1.0, spec.eigenfunctions[:, 0], a)
    with pytest.raises(PerturbationError):
        epsdot_2d(dtn, spec.eigenvalues[0],
                  2.0 * spec.eigenfunctions[:, 0], a)


def test_symmetric_curve_splitting_requires_branch_vectors():
    # threefold-symmetric curve: double eigenvalues; a twofold shape splits
    # them, so raw eigenvectors fail and form-diagonalizing ones succeed
    from plasmeig.spectrum2d import solve_plasmonic
    from plasmeig.perturb import _q1_form_2d
    dtn = build_dtn_for_curve(C3_CURVE, 132)
    spec = solve_plasmonic(dtn, num=6, curve_config=C3_CURVE.to_config())
    eps = spec.eigenvalues
    assert abs(eps[1] - eps[0]) < 1e-10
    a = ShapeFn2D(cos=[0.0, 0.0, 1.0])
    with pytest.raises(SplittingError):
        epsdot_2d(dtn, eps[0], spec.eigenfunctions[:, 0], a, spectrum=spec)

    a_vals = a.value(dtn.sample.t)
    pair = spec.eigenfunctions[:, :2]
    form = np.array([[_q1_form_2d(dtn, eps[0], a_vals, pair[:, i], pair[:, j])
                      for j in range(2)] for i in range(2)])
    w, v = scipy.linalg.eigh(form)
    weights = dtn.sample.weights
    for j in range(2):
        g = pair @ v[:, j]
        g /= math.sqrt(float(g @ (weights * dtn.nminus.apply(g))))
        slope = epsdot_2d(dtn, eps[0], g, a, spectrum=spec)
        assert abs(slope - w[j]) < 1e-10 * max(1.0, abs(w[j]))
