"""The validation check registry and its support oracles."""

import math

import numpy as np
import pytest

from plasmeig.curve2d import CurveParam, ShapeFn2D
from plasmeig.dtn_shape import fd_flags
from plasmeig.errors import ConfigError
from plasmeig.validate import (CHECK_NAMES, ELLIPSE, disk_integral_epsdot_y20,
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


@pytest.mark.parametrize("names", [[{}], "two_routes"])
def test_check_names_must_be_a_list_of_strings(names):
    # a string is not read as a list of one-letter check names, and an
    # unhashable entry is refused before any set is formed
    with pytest.raises(ConfigError, match="list of check names"):
        run_all(names=names)


def test_epsdot_fd_report_needs_two_steps():
    with pytest.raises(ConfigError, match="distinct positive"):
        epsdot_fd_report(CurveParam.from_config(ELLIPSE),
                         ShapeFn2D(cos=(0.0, 1.0)), [1e-2])


FLOORS = [1e-6, 2e-6, 4e-6]
BELOW = [1e-7, 1e-7, 1e-7]
ABOVE = [1e-7, 1e-5, 1e-7]


@pytest.mark.parametrize("series, want", [
    # no slope: a series passes exactly when every error is at most its floor
    ({"fd": (None, BELOW, 2)}, {"zero_deformation_ok": True}),
    ({"fd": (None, ABOVE, 2)}, {"zero_deformation_ok": False}),
    ({"one_sided": (None, BELOW, 1), "central": (None, FLOORS, 2)},
     {"zero_deformation_ok": True}),
    ({"one_sided": (None, ABOVE, 1), "central": (None, BELOW, 2)},
     {"zero_deformation_ok": False}),
    # a slope passes from order - 0.2 up, however fast the errors fall
    ({"one_sided": (0.79, ABOVE, 1), "central": (1.8, ABOVE, 2)},
     {"one_sided_slope_ok": False, "central_slope_ok": True}),
    ({"one_sided": (0.8, ABOVE, 1), "central": (1.79, ABOVE, 2)},
     {"one_sided_slope_ok": True, "central_slope_ok": False}),
    ({"fd": (3.98, ABOVE, 2)}, {"fd_slope_ok": True}),
    ({"fd": (-0.32, ABOVE, 2)}, {"fd_slope_ok": False}),
    # with a slope on one series, the other is judged on its floors
    ({"one_sided": (1.0, ABOVE, 1), "central": (None, BELOW, 2)},
     {"one_sided_slope_ok": True, "central_slope_ok": True}),
    ({"one_sided": (1.0, ABOVE, 1), "central": (None, ABOVE, 2)},
     {"one_sided_slope_ok": True, "central_slope_ok": False})])
def test_fd_flags_table(series, want):
    assert fd_flags(series, FLOORS) == want


def test_two_routes_crosses_the_block_step(monkeypatch):
    # at N = 128 the num = 4 solve (k = 16, N = 8k) runs the block Arnoldi
    # step, so the check compares two eigensolvers, not only the dense pair
    calls = count_block_steps(monkeypatch)
    [result] = run_all(names=["two_routes"])
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
    # simple, passes the 2D perturb verdict, and any slope it has is 2
    # within 0.2, tighter than the verdict's lower bound alone
    param = CurveParam.from_config(SYMMETRIC_CURVES[curve])
    a = ShapeFn2D.from_config(SHAPES[shape])
    for index in range(10):
        report = epsdot_fd_report(param, a, [1e-2, 5e-3, 2.5e-3], index=index)
        flags = fd_flags({"fd": (report["slope"], report["fd_errors"], 2)},
                         report["fd_floors"])
        assert all(flags.values()), index
        if report["slope"] is not None:
            assert abs(report["slope"] - 2.0) <= 0.2, index
