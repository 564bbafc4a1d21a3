"""Plasmonic spectrum solves: selection, invariances and diagnostics."""

import json
import math

import numpy as np
import pytest

from plasmeig.bem2d import build_dtn_for_curve
from plasmeig.cli import canonical_json
from plasmeig.curve2d import CurveParam
from plasmeig.errors import ConfigError, EInfinitySignal
from plasmeig.spectrum2d import (_mean_zero_reflector, _reflect,
                                 criticality_residual, np_route, rayleigh,
                                 residual_norm, solve_plasmonic)

from oracle2d import ellipse_plasmonic_eigenvalues

KITE = CurveParam.fourier(cos=[1.0, 0.25, 0.15], sin=[0.0, 0.0, 0.05])


def test_ellipse_matches_separation_of_variables():
    dtn = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 96)
    spec = solve_plasmonic(dtn, num=10)
    exact = ellipse_plasmonic_eigenvalues(2.0, 1.0, num=10)
    assert np.max(np.abs(spec.eigenvalues - np.array(exact))) < 1e-10


def test_unit_capacity_ellipse_matches_separation_of_variables():
    # a + b = 2: logarithmic capacity 1, so the plain single layer is singular
    dtn = build_dtn_for_curve(CurveParam.ellipse(1.2, 0.8), 256)
    spec = solve_plasmonic(dtn, num=10)
    exact = ellipse_plasmonic_eigenvalues(1.2, 0.8, num=10)
    assert np.max(np.abs(spec.eigenvalues - np.array(exact))) < 1e-10


def test_eigenvalues_are_scale_invariant():
    base = solve_plasmonic(build_dtn_for_curve(KITE, 96), num=12).eigenvalues
    for factor in (2.0, 0.5):
        scaled = solve_plasmonic(
            build_dtn_for_curve(KITE.scaled(factor), 96), num=12).eigenvalues
        assert np.max(np.abs(scaled - base)) < 1e-8


def test_eigenvalues_stable_under_grid_doubling():
    coarse = solve_plasmonic(build_dtn_for_curve(KITE, 96), num=12).eigenvalues
    fine = solve_plasmonic(build_dtn_for_curve(KITE, 192), num=12).eigenvalues
    assert np.max(np.abs(coarse - fine)) < 1e-9


def test_selection_keeps_values_farthest_from_one():
    dtn = build_dtn_for_curve(KITE, 64)
    few = solve_plasmonic(dtn, num=8).eigenvalues
    everything = solve_plasmonic(dtn, num=63).eigenvalues
    assert np.all(np.diff(few) >= 0.0)
    farthest = np.sort(everything[np.argsort(-np.abs(everything - 1.0))[:8]])
    assert np.max(np.abs(few - farthest)) < 1e-12


def test_spectrum_is_symmetric_under_inversion():
    # eigenvalues come in reciprocal pairs (eps, 1/eps) on any smooth curve
    eps = solve_plasmonic(build_dtn_for_curve(KITE, 128), num=16).eigenvalues
    for i in np.argsort(-np.abs(eps - 1.0))[:6]:
        assert np.min(np.abs(eps * eps[i] - 1.0)) < 1e-10


def test_eigenpairs_are_normalized_with_small_residuals():
    dtn = build_dtn_for_curve(KITE, 128)
    spec = solve_plasmonic(dtn, num=10)
    w = dtn.sample.weights
    assert np.max(spec.residuals) < 1e-10
    for i, eps in enumerate(spec.eigenvalues):
        g = spec.eigenfunctions[:, i]
        energy = float(g @ (w * dtn.nminus.apply(g)))
        assert abs(energy - 1.0) < 1e-10
        assert abs(residual_norm(dtn, eps, g) - spec.residuals[i]) < 1e-14
        assert abs(float(np.dot(g, w))) < 1e-9


def test_householder_basis_is_mean_zero_and_m_orthonormal():
    dtn = build_dtn_for_curve(KITE, 128)
    w = dtn.sample.weights
    spec = solve_plasmonic(dtn, num=20)
    assert np.max(np.abs(w @ spec.eigenfunctions)) < 1e-12
    root, v = _mean_zero_reflector(w)
    q = _reflect(v, np.eye(128))[:, 1:] / root[:, None]
    assert np.max(np.abs(w @ q)) < 1e-13
    assert np.max(np.abs(q.T @ (w[:, None] * q) - np.eye(127))) < 1e-13


def test_both_routes_agree_on_kite():
    dtn = build_dtn_for_curve(KITE, 128)
    a = solve_plasmonic(dtn, num=10)
    b = np_route(dtn, num=10)
    assert a.route == "dtn" and b.route == "np"
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-10
    assert np.max(b.residuals) < 1e-9


def test_rayleigh_recovers_eigenvalues_and_rejects_constants():
    dtn = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 96)
    spec = solve_plasmonic(dtn, num=6)
    for i, eps in enumerate(spec.eigenvalues):
        assert abs(rayleigh(dtn, spec.eigenfunctions[:, i]) - eps) < 1e-10
    with pytest.raises(EInfinitySignal):
        rayleigh(dtn, np.ones(dtn.n))


def test_eigenpairs_are_critical_points():
    dtn = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 96)
    spec = solve_plasmonic(dtn, num=4)
    for i in range(4):
        worst = criticality_residual(dtn, spec.eigenvalues[i],
                                     spec.eigenfunctions[:, i],
                                     directions=10, seed=i)
        assert worst < 1e-6


def test_num_validation():
    dtn = build_dtn_for_curve(CurveParam.ellipse(2.0, 1.0), 32)
    with pytest.raises(ConfigError):
        solve_plasmonic(dtn, num=0)
    with pytest.raises(ConfigError):
        solve_plasmonic(dtn, num=32)
    with pytest.raises(ConfigError):
        np_route(dtn, num=32)


def test_clustering_stats_shrink_with_the_window():
    spec = solve_plasmonic(build_dtn_for_curve(KITE, 128), num=40)
    stats = spec.clustering_stats()
    assert stats["tail_max"] < 0.05
    assert stats["tail_mean"] <= stats["tail_max"]
    wider = spec.clustering_stats(tail_after=30)
    assert wider["tail_max"] <= stats["tail_max"]


def test_json_and_csv_artifacts():
    curve = CurveParam.ellipse(2.0, 1.0)
    spec = solve_plasmonic(build_dtn_for_curve(curve, 64), num=5,
                           curve_config=curve.to_config())
    text = canonical_json(spec.to_json_dict())
    data = json.loads(text)
    assert canonical_json(data) == text
    assert data["curve"] == curve.to_config()
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
