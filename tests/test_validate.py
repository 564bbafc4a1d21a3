"""The validation check registry and its support oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from plasmeig import dtn_shape, spectrum2d, validate
from plasmeig.curve2d import CurveParam, ShapeFn2D
from plasmeig.dtn_shape import epsdot_fd_report, fd_flags
from plasmeig.errors import ConfigError
from plasmeig.spectrum2d import solve_plasmonic
from plasmeig.validate import (CHECK_NAMES, ELLIPSE, disk_integral_epsdot_y20,
                               elliptic_eigenvalues, run_all)

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


@pytest.mark.parametrize("index", [-1, 10])
def test_epsdot_fd_report_refuses_an_index_outside_the_selection(index):
    # a negative index would wrap round the selection, num would run past it
    with pytest.raises(ConfigError, match="index") as info:
        epsdot_fd_report(CurveParam.from_config(ELLIPSE),
                         ShapeFn2D(cos=(0.0, 0.0, 1.0)), [1e-2, 5e-3],
                         n=64, num=10, index=index)
    assert info.value.operation == "epsdot_fd_report"


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


H_LIST = [1e-2, 5e-3, 2.5e-3]
# the acceptance check's ellipse, one member of a 2-fold cluster of the
# threefold curve, and the fivefold curve whose errors fall as h^4
FOLLOWED = {"ellipse": (ELLIPSE, {"cos": [0, 0, 1]}, 0),
            "threefold-pair": (SYMMETRIC_CURVES["threefold"],
                               {"cos": [0, 0, 1]}, 0),
            "fivefold": ({"kind": "fourier", "cos": [1, 0, 0, 0, 0, 0.1]},
                         {"cos": [0, 0, 1]}, 4)}


def followed_eigenvalues(monkeypatch, case):
    """Each follow_branch call of the 2D perturb job of case: its DtN pair
    and the eigenvalue it returned."""
    calls = []
    follow = dtn_shape.follow_branch

    def recording(dtn, *args):
        calls.append((dtn, follow(dtn, *args)))
        return calls[-1][1]

    monkeypatch.setattr(dtn_shape, "follow_branch", recording)
    curve, shape, index = FOLLOWED[case]
    epsdot_fd_report(CurveParam.from_config(curve),
                     ShapeFn2D.from_config(shape), H_LIST, index=index)
    return calls


def test_fd_report_solves_one_dense_pencil(monkeypatch):
    # the base spectrum is the one dense pencil eigh, which on the mirror-
    # symmetric ellipse is its two halves (even N/2, odd N/2 - 1 mean-zero
    # dimensions); each shifted curve costs one LU of the pencil of the half
    # that holds the branch (the odd one at index 0) and a few solves, and
    # the base curve is evaluated once per grid: the N nodes, shared by the
    # base and every shifted sample, and the star-check grid
    n = 128
    sizes = {"dsygvd": [], "dgetrf": [], "derivatives": []}

    def counting(owner, name, sized):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            sizes[name].append(len(args[sized]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(scipy.linalg.lapack, "dsygvd", 0)
    counting(scipy.linalg.lapack, "dgetrf", 0)
    counting(CurveParam, "derivatives", 1)
    report = epsdot_fd_report(CurveParam.from_config(ELLIPSE),
                              ShapeFn2D(cos=(0.0, 0.0, 1.0)), H_LIST, n=n)
    assert report["slope"] is not None
    assert [s for s in sizes["dsygvd"] if s >= n // 2 - 1] == [n // 2,
                                                            n // 2 - 1]
    assert sizes["dgetrf"] == [n // 2 - 1] * 2 * len(H_LIST)
    assert sorted(sizes["derivatives"]) == [n, 720]


@pytest.mark.parametrize("case", sorted(FOLLOWED))
def test_followed_eigenvalue_is_the_dense_pencil_value(monkeypatch, case):
    # inverse iteration answers with an eigenvalue of the shifted pencil:
    # the dense eigensolve of the same curve (all N - 1 values) holds it
    # to roundoff
    for dtn, eps in followed_eigenvalues(monkeypatch, case):
        dense = solve_plasmonic(dtn, num=dtn.sample.n - 1).eigenvalues
        assert np.min(np.abs(dense - eps)) <= 1e-13 * max(1.0, abs(eps))


@pytest.mark.parametrize("case", sorted(FOLLOWED))
def test_dense_fallback_follows_the_same_branch(monkeypatch, case):
    # with no inverse-iteration solve allowed, the dense eigh of each
    # shifted pencil answers by the same overlap rule: the same branch,
    # the same value to roundoff
    followed = [eps for _, eps in followed_eigenvalues(monkeypatch, case)]
    monkeypatch.undo()
    monkeypatch.setattr(spectrum2d, "_FOLLOW_SOLVES", 0)
    sizes = []
    sygvd = scipy.linalg.lapack.dsygvd

    def counting(a, *args, **kwargs):
        sizes.append(len(a))
        return sygvd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsygvd", counting)
    dense = [eps for _, eps in followed_eigenvalues(monkeypatch, case)]
    # the base solve, both halves of the mirror-symmetric curve, then one
    # dense eigh per shifted curve, on the half that holds the branch
    dense_sizes = [s for s in sizes if s >= 63]
    assert dense_sizes[:2] == [64, 63]
    assert dense_sizes[2] in (64, 63)
    assert dense_sizes[2:] == [dense_sizes[2]] * 2 * len(H_LIST)
    for a, b in zip(followed, dense):
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))
