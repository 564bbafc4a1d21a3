"""Spherical harmonic transforms, surface calculus and the ball spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lpmv

from plasmeig.errors import ConfigError, EInfinitySignal, ShapeMismatchError
from plasmeig.sphere3d import (SHField, analyze, ball_spectrum,
                               degree_harmonics, dtn_sphere_apply,
                               sphere_grid, synthesize)


def random_field(L, seed):
    rng = np.random.default_rng(seed)
    f = SHField(L)
    for l in range(L + 1):
        f.coeffs[l, L - l:L + l + 1] = rng.standard_normal(2 * l + 1)
    return f


def values(f, grid):
    return synthesize(grid, [f])[0][0]


def gradient(f, grid):
    return synthesize(grid, gradients=[f])[1][0]


def projection(vals, L, grid):
    return analyze(grid, L, [vals])[0]


def divergence(v, grid, L):
    return analyze(grid, L, tangents=[v])[0]


def product(f, g, L):
    # pointwise product on a grid whose headroom makes the analysis of the
    # band f.L + g.L product exact up to L
    grid = sphere_grid((f.L + g.L + L) // 2 + 1)
    vals = synthesize(grid, [f, g])[0]
    return projection(vals[0] * vals[1], L, grid)


def field_json(f):
    # the {"L", "coeffs": [{"l", "m", "c"}]} config that from_json_dict reads
    coeffs = [{"l": l, "m": m, "c": float(f.coeffs[l, m + f.L])}
              for l in range(f.L + 1) for m in range(-l, l + 1)]
    return {"L": f.L, "coeffs": coeffs}


def test_grid_integrates_constants_exactly():
    grid = sphere_grid(6)
    assert abs(grid.integrate(np.ones((grid.ntheta, grid.nphi)))
               - 4.0 * math.pi) < 1e-12


def test_basis_functions_are_orthonormal():
    L = 4
    grid = sphere_grid(2 * L)
    fields = [values(SHField.basis(L, l, m), grid)
              for l in range(L + 1) for m in range(-l, l + 1)]
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            want = 1.0 if i == j else 0.0
            assert abs(grid.integrate(fi * fj) - want) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_analysis_inverts_synthesis(seed):
    # the band-9 grid takes the sliced path: tables wider than the band
    f = random_field(5, seed)
    for grid in (sphere_grid(5), sphere_grid(9)):
        back = projection(values(f, grid), 5, grid)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_parseval_identity(seed):
    f = random_field(4, seed)
    grid = sphere_grid(4)
    vals = values(f, grid)
    assert abs(grid.integrate(vals * vals)
               - float(np.sum(f.coeffs ** 2))) < 1e-11


def test_gradient_closed_form():
    # Y_{1,0} = sqrt(3/4pi) cos(theta); its gradient has only a theta part
    grid = sphere_grid(3)
    grad = gradient(SHField.basis(1, 1, 0), grid)
    scale = math.sqrt(3.0 / (4.0 * math.pi))
    want = -scale * grid.sin_theta[:, None] * np.ones(grid.nphi)[None, :]
    assert grad.shape == (2, grid.ntheta, grid.nphi)
    assert np.max(np.abs(grad[0] - want)) < 1e-13
    assert np.max(np.abs(grad[1])) < 1e-13


def test_divergence_is_adjoint_to_gradient():
    f = random_field(4, seed=1)
    y = random_field(4, seed=2)
    grid = sphere_grid(6)
    vec = gradient(f, grid)
    div = divergence(vec, grid, 4)
    lhs = grid.integrate(values(div, grid) * values(y, grid))
    gy = gradient(y, grid)
    rhs = -grid.integrate(vec[0] * gy[0] + vec[1] * gy[1])
    assert abs(lhs - rhs) < 1e-11


@pytest.mark.parametrize("bands, grid_band", [
    ((0, 3, 5), 5), ((2, 30, 17, 30), 30), ((30, 12, 1), 62)])
def test_batched_transforms_match_single_fields(bands, grid_band):
    # one kernel call per table for the whole stack, against stacks of
    # one, field by field
    grid = sphere_grid(grid_band)
    fields = [random_field(L, seed=i) for i, L in enumerate(bands)]
    vals, grads = synthesize(grid, fields, fields[::-1])
    L = max(bands)
    coeffs = analyze(grid, L, vals, grads)
    singles = ([values(f, grid) for f in fields]
               + [gradient(f, grid) for f in fields[::-1]]
               + [projection(v, L, grid).coeffs for v in vals]
               + [divergence(g, grid, L).coeffs for g in grads])
    batched = list(vals) + list(grads) + [f.coeffs for f in coeffs]
    assert len(batched) == len(singles) == 4 * len(bands)
    for got, want in zip(batched, singles):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_degree_harmonics_match_the_transforms():
    for k in range(31):
        grid = sphere_grid(k + 2)
        vals, grads = degree_harmonics(k, grid)
        assert vals.shape == (2 * k + 1, grid.ntheta, grid.nphi)
        assert grads.shape == (2 * k + 1, 2, grid.ntheta, grid.nphi)
        for i, m in enumerate(range(-k, k + 1)):
            basis = SHField.basis(k, k, m)
            want_vals = values(basis, grid)
            want_grads = gradient(basis, grid)
            assert np.max(np.abs(vals[i] - want_vals)) \
                <= 1e-14 * np.max(np.abs(want_vals))
            assert np.max(np.abs(grads[i] - want_grads)) \
                <= 1e-14 * np.max(np.abs(want_grads))


def test_divergence_of_gradient_is_laplacian():
    # the surface Laplacian multiplies degree l by -l(l+1); Y_{5,3,2} -> -12
    for f in (random_field(5, seed=7), SHField.basis(5, 3, 2),
              random_field(30, seed=8)):
        grid = sphere_grid(f.L + 2)
        l = np.arange(f.L + 1, dtype=float)[:, None]
        div = divergence(gradient(f, grid), grid, f.L)
        assert np.max(np.abs(div.coeffs + l * (l + 1.0) * f.coeffs)) < 1e-10


def test_legendre_table_matches_scipy_at_band_30():
    # Pbar_l^m = (-1)^m P_l^m sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!): scipy's
    # lpmv carries the Condon-Shortley phase, the table does not
    grid = sphere_grid(30)
    want = np.zeros_like(grid.plm)
    for l in range(31):
        for m in range(l + 1):
            norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                             * math.factorial(l - m) / math.factorial(l + m))
            want[l, m] = (-1) ** m * norm * lpmv(m, l, grid.x)
    assert np.max(np.abs(grid.plm - want)) < 1e-13


def test_product_of_axial_harmonics_closed_form():
    # Y10^2 = 1/sqrt(4pi) Y00 + 1/sqrt(5pi) Y20
    prod = product(SHField.basis(1, 1, 0), SHField.basis(1, 1, 0), 2)
    assert prod.L == 2
    L = prod.L
    assert abs(prod.coeffs[0, 0 + L] - 1.0 / math.sqrt(4.0 * math.pi)) < 1e-14
    assert abs(prod.coeffs[2, 0 + L] - 1.0 / math.sqrt(5.0 * math.pi)) < 1e-14
    rest = SHField(L, prod.coeffs.copy())
    rest.set_coeff(0, 0, 0.0)
    rest.set_coeff(2, 0, 0.0)
    assert np.linalg.norm(rest.coeffs) < 1e-14


def test_multiplication_by_one_is_identity():
    one = SHField(0)
    one.coeffs[0, 0] = math.sqrt(4.0 * math.pi)
    f = random_field(3, seed=4)
    prod = product(one, f, L=3)
    assert np.max(np.abs(prod.coeffs - f.coeffs)) < 1e-13


def test_dtn_sphere_multipliers():
    f = random_field(4, seed=9)
    inner = dtn_sphere_apply(f)
    for l in range(5):
        row = f.coeffs[l]
        assert np.max(np.abs(inner.coeffs[l] - l * row)) < 1e-15


def test_ball_spectrum_values_and_signals():
    for k in range(1, 11):
        eps, mult = ball_spectrum(k)
        assert eps == (k + 1.0) / k
        assert mult == 2 * k + 1
    with pytest.raises(EInfinitySignal):
        ball_spectrum(0)
    with pytest.raises(ConfigError):
        ball_spectrum(-2)
    with pytest.raises(ConfigError):
        ball_spectrum(1.5)


def test_field_json_roundtrip_and_validation():
    f = random_field(3, seed=11)
    again = SHField.from_json_dict(field_json(f))
    assert np.array_equal(again.coeffs, f.coeffs)
    with pytest.raises(ConfigError):
        SHField.from_json_dict({"L": 2})
    with pytest.raises(ConfigError):
        SHField.from_json_dict({"L": 2, "coeffs": [], "extra": 1})
    with pytest.raises(ConfigError):
        SHField.from_json_dict({"L": -1, "coeffs": []})
    with pytest.raises(ConfigError):
        SHField.from_json_dict(
            {"L": 2, "coeffs": [{"l": 3, "m": 0, "c": 1.0}]})
    with pytest.raises(ConfigError):
        SHField.from_json_dict(
            {"L": 2, "coeffs": [{"l": 1, "m": 0, "x": 1.0}]})


def test_field_algebra():
    f = SHField.basis(2, 2, 1)
    g = SHField.basis(1, 1, 0)
    both = f.plus(g, factor=2.0)
    assert both.L == 2
    assert both.coeffs[2, 1 + both.L] == 1.0
    assert both.coeffs[1, 0 + both.L] == 2.0
    cut = both.truncated(1)
    assert cut.coeffs[1, 0 + cut.L] == 2.0
    assert cut.L == 1
    assert f.scaled(3.0).coeffs[2, 1 + f.L] == 3.0
    assert abs(np.linalg.norm(both.coeffs) - math.sqrt(5.0)) < 1e-15


def test_band_and_shape_guards():
    f = random_field(5, seed=3)
    with pytest.raises(ShapeMismatchError):
        values(f, sphere_grid(2))
    with pytest.raises(ShapeMismatchError):
        projection(np.ones((3, 3)), 2, sphere_grid(2))
    grid = sphere_grid(5)
    with pytest.raises(ShapeMismatchError):
        divergence(np.ones((3, grid.ntheta, grid.nphi)), grid, 5)
    with pytest.raises(ShapeMismatchError):
        divergence(np.ones((2, 3, 3)), grid, 5)
    with pytest.raises(ShapeMismatchError):
        SHField(2, np.zeros((2, 5)))
