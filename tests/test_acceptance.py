"""Acceptance suite: one test per shipped validation criterion.

Each test runs the corresponding check from plasmeig.validate (where every
tolerance is pinned), prints a single pass/fail line, and enforces the
advertised runtime budget. Run with `pytest -v tests/test_acceptance.py`
or through the CLI as `plasmeig validate`.
"""

from plasmeig import validate


def _run(number, name, budget_seconds):
    [result] = validate.run_all(names=[name])
    status = "PASS" if result.passed else "FAIL"
    print("criterion %2d %-22s %s (%.2f s)  %s"
          % (number, name, status, result.runtime, result.details))
    assert result.passed, "%s: %s" % (name, result.details)
    assert result.runtime < budget_seconds, \
        "%s took %.2f s (budget %g s)" % (name, result.runtime, budget_seconds)


def test_criterion_01_disk_degeneracy():
    _run(1, "disk_degeneracy", 1.0)


def test_criterion_02_ellipse_oracle():
    _run(2, "ellipse_oracle", 2.0)


def test_criterion_03_clustering():
    _run(3, "clustering", 5.0)


def test_criterion_04_two_routes():
    _run(4, "two_routes", 5.0)


def test_criterion_05_rayleigh_identity():
    _run(5, "rayleigh_identity", 5.0)


def test_criterion_06_ball_spectrum():
    _run(6, "ball_spectrum", 5.0)


def test_criterion_07_first_order_sphere():
    _run(7, "first_order_sphere", 5.0)


def test_criterion_08_second_order_sphere():
    _run(8, "second_order_sphere", 10.0)


def test_criterion_09_first_order_2d_fd():
    _run(9, "first_order_2d_fd", 20.0)


def test_criterion_10_dtn_shape_derivative():
    _run(10, "dtn_shape_derivative", 10.0)


def test_criterion_11_g0_characterization():
    _run(11, "g0_characterization", 5.0)


def test_full_suite_under_budget():
    results = validate.run_all(seed=0)
    total = sum(r.runtime for r in results)
    failed = [r.name for r in results if not r.passed]
    print("full suite: %d checks, %.2f s total" % (len(results), total))
    assert not failed, "failing checks: %s" % failed
    assert total < 120.0, "suite took %.1f s" % total
