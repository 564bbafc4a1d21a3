"""The validation check registry and its support oracles."""

import math

import numpy as np
import pytest

from plasmeig.curve2d import CurveParam, ShapeFn2D
from plasmeig.errors import ConfigError
from plasmeig.validate import (CHECK_NAMES, check_two_routes,
                               disk_integral_epsdot_y20,
                               elliptic_eigenvalues, epsdot_fd_report,
                               run_all)

import oracle2d
from test_spectrum2d import count_block_steps

EXPECTED_CHECKS = [
    "disk_degeneracy",
    "ellipse_oracle",
    "clustering",
    "two_routes",
    "rayleigh_identity",
    "ball_spectrum",
    "first_order_sphere",
    "second_order_sphere",
    "first_order_2d_fd",
    "dtn_shape_derivative",
    "g0_characterization",
]


def test_registry_lists_all_checks_in_order():
    assert CHECK_NAMES == EXPECTED_CHECKS


def test_run_all_subset_and_result_shape():
    # subsets always run in suite order, whatever order was requested
    results = run_all(names=["ball_spectrum", "disk_degeneracy"])
    assert [r.name for r in results] == ["disk_degeneracy", "ball_spectrum"]
    for res in results:
        assert res.passed
        assert res.runtime >= 0.0
        payload = res.to_json_dict()
        assert set(payload) == {"name", "passed", "details"}


def test_unknown_check_name_is_a_config_error():
    with pytest.raises(ConfigError):
        run_all(names=["ball_spectrum", "nonexistent"])


def test_empty_check_list_is_a_config_error():
    # a caller that gates on all(r.passed for r in results) must not pass
    # having run nothing
    with pytest.raises(ConfigError, match="checks"):
        run_all(names=[])


def test_two_routes_crosses_the_block_step(monkeypatch):
    # at N = 128 the num = 4 solve (k = 16, N = 8k) runs the block Arnoldi
    # step, so the check compares two eigensolvers, not only the dense pair
    calls = count_block_steps(monkeypatch)
    result = check_two_routes()
    assert result.passed, result.details
    assert calls == [True]
    assert result.details["block_max_abs_gap"] <= result.details["tol"]


def test_elliptic_eigenvalues_cross_check():
    # two independently written closed forms must agree exactly
    ours = elliptic_eigenvalues(2.0, 1.0, 10)
    theirs = oracle2d.ellipse_plasmonic_eigenvalues(2.0, 1.0, 10)
    assert np.max(np.abs(np.array(ours) - np.array(theirs))) < 1e-14


def test_disk_integral_quadrature_converges():
    exact = 9.0 / math.sqrt(5.0 * math.pi)
    assert abs(disk_integral_epsdot_y20(nq=80) - exact) < 1e-12
    coarse = disk_integral_epsdot_y20(nq=12)
    assert abs(coarse - exact) < 1e-3


@pytest.mark.parametrize("nq", [12, 80])
def test_disk_integral_matches_the_pointwise_loop(nq):
    # the one-expression oracle against the node-by-node sum it replaced;
    # only the summation order differs
    x, wx = np.polynomial.legendre.leggauss(nq)
    total = 0.0
    for p, wp in zip(0.25 * math.pi * (x + 1.0), 0.25 * math.pi * wx):
        y20 = math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * math.cos(p) ** 2
                                                   - 1.0)
        total += wp * 2.0 * y20 * (2.0 - 3.0 * math.sin(p) ** 2) \
            * math.sin(p) * 2.0 * math.pi
    want = 9.0 / (4.0 * math.pi) * total
    assert abs(disk_integral_epsdot_y20(nq) - want) <= 1e-14 * abs(want)


SYMMETRIC_CURVES = {"threefold": {"kind": "fourier", "cos": [1, 0, 0, 0.1]},
                    "fourfold": {"kind": "fourier",
                                 "cos": [1, 0, 0, 0, 0.1]}}
SHAPES = {"cos2": {"cos": [0, 0, 1]}, "cos1": {"cos": [0, 1]},
          "mixed": {"cos": [0.3, 0.2, 0.1, 0.4], "sin": [0.1, -0.2, 0.3]}}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("curve", sorted(SYMMETRIC_CURVES))
def test_symmetric_curves_pass_at_every_index(curve, shape):
    # dihedral curves carry 2-fold clusters; every index, clustered or
    # simple, passes the 2D perturb verdict: slope 2 within 0.2, or no
    # slope and every error at most its floor
    param = CurveParam.from_config(SYMMETRIC_CURVES[curve])
    a = ShapeFn2D.from_config(SHAPES[shape])
    for index in range(10):
        report = epsdot_fd_report(param, a, [1e-2, 5e-3, 2.5e-3], index=index)
        if report["slope"] is None:
            assert all(e <= f for e, f in zip(report["fd_errors"],
                                               report["fd_floors"])), index
        else:
            assert abs(report["slope"] - 2.0) <= 0.2, index
